// Command deceit is the administrative and user CLI for a Deceit cell. It
// speaks NFS for file operations and the Deceit control program for the
// paper's special commands (§2.1): listing versions, locating replicas,
// changing per-file parameters, forcing replica placement, and reading the
// conflict log.
//
// Usage:
//
//	deceit -servers 127.0.0.1:8001,127.0.0.1:8002 <command> [args]
//
// Commands:
//
//	ls <path>                    list a directory
//	cat <path>                   print a file (supports "file;N" versions)
//	put <path>                   write stdin to a file
//	mkdir <path>                 create directories
//	rm <path>                    remove a file or one version ("file;N")
//	stat <path>                  versions, replicas, token holders, params
//	setparam <path> k=v ...      set minreplicas/writesafety/stability/
//	                             migration/avail/maxreplicas/hotread
//	addreplica <path> <server>   force a replica onto a server
//	rmreplica <path> <server>    remove a replica from a server
//	conflicts                    show the version conflict log (§3.6)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strconv"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/derr"
	"repro/internal/server"
)

func main() {
	servers := flag.String("servers", "127.0.0.1:8001", "comma-separated NFS endpoints (failover list)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "deceit: no command; see -h")
		os.Exit(2)
	}

	ag, err := agent.Mount(strings.Split(*servers, ","), agent.Options{})
	if err != nil {
		fatal(err)
	}
	defer ag.Close()

	cmd, rest := args[0], args[1:]
	switch cmd {
	case "ls":
		requireArgs(rest, 1)
		h, _, err := ag.Walk(rest[0])
		if err != nil {
			fatal(err)
		}
		ents, err := ag.Readdir(h)
		if err != nil {
			fatal(err)
		}
		for _, e := range ents {
			fmt.Println(e.Name)
		}
	case "cat":
		requireArgs(rest, 1)
		data, err := ag.ReadFile(rest[0])
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case "put":
		requireArgs(rest, 1)
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		if err := withRetry(func() error { return ag.WriteFile(rest[0], data) }); err != nil {
			fatal(err)
		}
	case "mkdir":
		requireArgs(rest, 1)
		if err := withRetry(func() error { return ag.MkdirAll(rest[0]) }); err != nil {
			fatal(err)
		}
	case "rm":
		requireArgs(rest, 1)
		dir, name := path.Split(path.Clean("/" + rest[0]))
		dh, _, err := ag.Walk(dir)
		if err != nil {
			fatal(err)
		}
		if err := withRetry(func() error { return ag.Remove(dh, name) }); err != nil {
			fatal(err)
		}
	case "stat":
		requireArgs(rest, 1)
		h, _, err := ag.Walk(rest[0])
		if err != nil {
			fatal(err)
		}
		st, err := ag.FileStat(h)
		if err != nil {
			fatal(err)
		}
		p := st.Params
		fmt.Printf("params: minreplicas=%d writesafety=%d stability=%v migration=%v avail=%d maxreplicas=%d hotread=%v\n",
			p.MinReplicas, p.WriteSafety, p.Stability, p.Migration, p.Avail, p.MaxReplicas, p.HotRead)
		for _, v := range st.Versions {
			cur := " "
			if v.Current {
				cur = "*"
			}
			unst := ""
			if v.Unstable {
				unst = " (unstable)"
			}
			fmt.Printf("%sversion %d: pair=(%d,%d) holder=%s size=%d replicas=%v%s\n",
				cur, v.Index, v.Major, v.PairSub, v.Holder, v.Size, v.Replicas, unst)
		}
	case "setparam":
		if len(rest) < 2 {
			fatal(fmt.Errorf("setparam needs a path and k=v pairs"))
		}
		h, _, err := ag.Walk(rest[0])
		if err != nil {
			fatal(err)
		}
		st, err := ag.FileStat(h)
		if err != nil {
			fatal(err)
		}
		p := st.Params
		for _, kv := range rest[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				fatal(fmt.Errorf("bad parameter %q", kv))
			}
			switch k {
			case "minreplicas":
				p.MinReplicas = parseU32(v)
			case "writesafety":
				p.WriteSafety = parseU32(v)
			case "stability":
				p.Stability = v == "true" || v == "on" || v == "1"
			case "migration":
				p.Migration = v == "true" || v == "on" || v == "1"
			case "avail":
				switch v {
				case "low":
					p.Avail = 0
				case "medium":
					p.Avail = 1
				case "high":
					p.Avail = 2
				default:
					fatal(fmt.Errorf("avail must be low/medium/high"))
				}
			case "maxreplicas":
				p.MaxReplicas = parseU32(v)
			case "hotread":
				p.HotRead = v == "true" || v == "on" || v == "1"
			default:
				fatal(fmt.Errorf("unknown parameter %q", k))
			}
		}
		if err := ag.SetParams(h, p); err != nil {
			fatal(err)
		}
	case "addreplica", "rmreplica":
		requireArgs(rest, 2)
		h, _, err := ag.Walk(rest[0])
		if err != nil {
			fatal(err)
		}
		if cmd == "addreplica" {
			err = ag.AddReplica(h, 0, rest[1])
		} else {
			err = ag.RemoveReplica(h, 0, rest[1])
		}
		if err != nil {
			fatal(err)
		}
	case "reconcile":
		requireArgs(rest, 1)
		h, _, err := ag.Walk(rest[0])
		if err != nil {
			fatal(err)
		}
		merged, err := ag.ReconcileDir(h)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reconciled: %d entries recovered\n", merged)
	case "conflicts":
		confs, err := ag.Conflicts()
		if err != nil {
			fatal(err)
		}
		if len(confs) == 0 {
			fmt.Println("no conflicts")
		}
		for _, c := range confs {
			fmt.Println(c)
		}
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
	_ = server.CtlProgram // keep the control program linked for docs
}

// withRetry reruns a mutating command while it fails with a transient
// condition: core.IsRetryable (segment busy, group mid-rejoin) for errors
// from an in-process segment layer, or the agent's NFS-level reflection of
// the same class (agent.IsTransient) when the failure crossed the wire.
func withRetry(fn func() error) error {
	return derr.RetryIf(3*time.Second, func(err error) bool {
		return core.IsRetryable(err) || agent.IsTransient(err)
	}, fn)
}

func requireArgs(args []string, n int) {
	if len(args) != n {
		fatal(fmt.Errorf("expected %d argument(s), got %d", n, len(args)))
	}
}

func parseU32(s string) uint32 {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		fatal(err)
	}
	return uint32(v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deceit:", err)
	os.Exit(1)
}
