package derr_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// boundaryPackages are the packages whose errors cross the SunRPC boundary:
// everything they surface must carry a derr code, or the category is lost
// the moment the error is projected onto an NFS status word. The lint bans
// the raw constructors outright — a typed boundary that is "mostly typed"
// decays one fmt.Errorf at a time.
var boundaryPackages = []string{"core", "envelope", "server", "agent", "nfsproto"}

// bannedCalls are constructors that mint untyped errors.
var bannedCalls = map[string]map[string]bool{
	"errors": {"New": true},
	"fmt":    {"Errorf": true},
}

// TestRPCBoundarySpeaksTypedErrors parses the non-test sources of every
// boundary package and fails on any call to a banned constructor. Use
// derr.New / derr.Wrap (or a typed sentinel) instead; errors.Is/As and
// fmt.Sprintf remain fine.
func TestRPCBoundarySpeaksTypedErrors(t *testing.T) {
	var violations []string
	for _, pkg := range boundaryPackages {
		dir := filepath.Join("..", pkg)
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", dir, err)
		}
		for _, p := range pkgs {
			for _, f := range p.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					recv, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					if bannedCalls[recv.Name][sel.Sel.Name] {
						violations = append(violations, fmt.Sprintf("%s: %s.%s mints an untyped error",
							fset.Position(call.Pos()), recv.Name, sel.Sel.Name))
					}
					return true
				})
			}
		}
	}
	for _, v := range violations {
		t.Errorf("%s (use derr.New/derr.Wrap so the code survives the RPC boundary)", v)
	}
}

// TestCoreChecksCommitErrors fails on any PutBatch call in the non-test core
// sources whose error is thrown away, by `_ =` or as a bare statement: a
// store commit that failed must fail the reply it was going to back.
func TestCoreChecksCommitErrors(t *testing.T) {
	dir := filepath.Join("..", "core")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	isPutBatch := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "PutBatch"
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call ast.Expr
				switch st := n.(type) {
				case *ast.ExprStmt:
					call = st.X
				case *ast.AssignStmt:
					for _, lhs := range st.Lhs {
						if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
							return true
						}
					}
					if len(st.Rhs) == 1 {
						call = st.Rhs[0]
					}
				default:
					return true
				}
				if isPutBatch(call) {
					t.Errorf("%s: PutBatch error discarded; return it to the caller",
						fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
}
