package bench

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := &Table{
		ID:     "X1",
		Title:  "demo",
		Header: []string{"col", "value"},
		Rows: [][]string{
			{"short", "1"},
			{"a-much-longer-cell", "2"},
		},
		Notes: []string{"a note"},
	}
	out := tb.Render()
	if !strings.Contains(out, "=== X1: demo ===") {
		t.Errorf("missing banner:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: "value" starts at the same offset in header and rows.
	idx := strings.Index(lines[1], "value")
	for _, ln := range lines[2:4] {
		cell := ln[idx : idx+1]
		if cell != "1" && cell != "2" {
			t.Errorf("misaligned row %q (expected value column at %d)", ln, idx)
		}
	}
	if !strings.Contains(out, "note: a note") {
		t.Errorf("missing note:\n%s", out)
	}
}

func TestTableRenderEmptyRows(t *testing.T) {
	tb := &Table{ID: "X2", Title: "empty", Header: []string{"h"}}
	out := tb.Render()
	if !strings.Contains(out, "X2") || !strings.Contains(out, "h") {
		t.Errorf("render = %q", out)
	}
}

func TestExperimentRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range Order {
		if seen[id] {
			t.Errorf("experiment %s listed twice in Order", id)
		}
		seen[id] = true
		if Experiments[id] == nil {
			t.Errorf("experiment %s in Order but not registered", id)
		}
	}
	for id := range Experiments {
		if !seen[id] {
			t.Errorf("experiment %s registered but not in Order", id)
		}
	}
}

// TestRunT1EndToEnd executes the cheapest full experiment to keep the
// harness itself under test: every Table 1 row must be observed.
func TestRunT1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run skipped in -short")
	}
	tb, err := RunT1()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 5 {
		t.Fatalf("T1 produced %d rows, want the 5 Table-1 rows:\n%s", len(tb.Rows), tb.Render())
	}
	for _, row := range tb.Rows {
		if row[len(row)-1] != "observed" {
			t.Errorf("row %v not observed", row)
		}
	}
}
