package repro

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/testutil"
)

// These integration tests exercise the deployment shape the reproduction
// targets: multiple Deceit servers on one box talking to each other over
// real TCP (the paper's servers on a LAN), with stock-protocol NFS clients.

// startTCPServer boots one full Deceit server whose inter-server transport
// is real TCP on localhost.
func startTCPServer(t *testing.T, peers []simnet.NodeID, self string, initRoot bool, st store.Store) (*server.Server, string) {
	t.Helper()
	tr, err := simnet.ListenTCP(self)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Transport: tr,
		Peers:     peers,
		Store:     st,
		ISIS:      testutil.FastISISOpts(),
		Core:      testutil.FastCoreOpts(),
		InitRoot:  initRoot,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ServeNFS("127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, addr
}

// TestTCPCellEndToEnd runs a 3-server cell entirely over real TCP: ISIS
// casts, blast transfers, forwarded reads and NFS client traffic all cross
// genuine sockets.
func TestTCPCellEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP cell test skipped in -short")
	}
	// Reserve three inter-server ports by listening and closing.
	peers := []simnet.NodeID{"127.0.0.1:17101", "127.0.0.1:17102", "127.0.0.1:17103"}
	srvs := make([]*server.Server, 3)
	addrs := make([]string, 3)
	for i, p := range peers {
		srv, addr := startTCPServer(t, peers, string(p), i == 0, store.NewMemStore())
		srvs[i] = srv
		addrs[i] = addr
	}
	defer func() {
		for _, s := range srvs {
			if s != nil {
				s.Close()
			}
		}
	}()

	ag, err := agent.Mount(addrs, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()

	if err := ag.MkdirAll("/proj"); err != nil {
		t.Fatal(err)
	}
	if err := ag.WriteFile("/proj/data.bin", []byte(strings.Repeat("tcp!", 4096))); err != nil {
		t.Fatal(err)
	}

	// Force a replica across a real TCP blast transfer.
	h, _, err := ag.Walk("/proj/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.AddReplica(h, 0, "127.0.0.1:17102"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := ag.FileStat(h)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Versions) > 0 && len(st.Versions[0].Replicas) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never landed over TCP: %+v", st)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Read through a server with no replica: a real-TCP forwarded read.
	ag3, err := agent.Mount([]string{addrs[2]}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag3.Close()
	data, err := ag3.ReadFile("/proj/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 4*4096 {
		t.Fatalf("forwarded read returned %d bytes", len(data))
	}
}

// TestMultiProcessCell builds the deceitd binary and runs a 3-process cell,
// the literal deployment from the README: write through one process, read
// through another, kill one, keep working, restart it from its disk store.
func TestMultiProcessCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test skipped in -short")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "deceitd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/deceitd")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build deceitd: %v\n%s", err, out)
	}

	peerList := "127.0.0.1:17201,127.0.0.1:17202,127.0.0.1:17203"
	nfs := []string{"127.0.0.1:18201", "127.0.0.1:18202", "127.0.0.1:18203"}
	procs := make([]*exec.Cmd, 3)
	stores := make([]string, 3)
	start := func(i int, initRoot bool) {
		t.Helper()
		stores[i] = filepath.Join(dir, fmt.Sprintf("store%d", i))
		args := []string{
			"-listen", fmt.Sprintf("127.0.0.1:1720%d", i+1),
			"-peers", peerList,
			"-nfs", nfs[i],
			"-store", stores[i],
		}
		if initRoot {
			args = append(args, "-init")
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start deceitd %d: %v", i, err)
		}
		procs[i] = cmd
	}
	for i := 0; i < 3; i++ {
		start(i, i == 0)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				_ = p.Process.Kill()
				_, _ = p.Process.Wait()
			}
		}
	}()

	// Wait for the cell to come up by mounting with retries.
	var ag *agent.Agent
	var err error
	deadline := time.Now().Add(30 * time.Second)
	for {
		ag, err = agent.Mount(nfs, agent.Options{})
		if err == nil {
			if werr := ag.WriteFile("/boot.txt", []byte("up")); werr == nil {
				break
			}
			ag.Close()
			ag = nil
		}
		if time.Now().After(deadline) {
			t.Fatalf("cell never came up: %v", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
	defer func() {
		if ag != nil {
			ag.Close()
		}
	}()

	// Replicate a file (and the root) onto process 2, then read it through
	// process 3 — a cross-process forwarded read.
	if err := ag.WriteFile("/shared.txt", []byte("three processes, one file system")); err != nil {
		t.Fatal(err)
	}
	h, _, err := ag.Walk("/shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := ag.AddReplica(h, 0, "127.0.0.1:17202"); err != nil {
		t.Fatal(err)
	}
	if err := ag.AddReplica(ag.Root(), 0, "127.0.0.1:17202"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)

	ag3, err := agent.Mount([]string{nfs[2]}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag3.Close()
	data, err := ag3.ReadFile("/shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "three processes, one file system" {
		t.Fatalf("cross-process read = %q", data)
	}

	// Kill process 1 (the mounted server); the agent fails over and the
	// replicated file survives.
	_ = procs[0].Process.Signal(syscall.SIGTERM)
	_, _ = procs[0].Process.Wait()
	procs[0] = nil

	deadline = time.Now().Add(30 * time.Second)
	for {
		data, err = ag.ReadFile("/shared.txt")
		if err == nil && string(data) == "three processes, one file system" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("read after process kill: %v", err)
		}
		time.Sleep(250 * time.Millisecond)
	}

	// Restart the killed process from its on-disk store; it must rejoin.
	start(0, false)
	deadline = time.Now().Add(30 * time.Second)
	for {
		ag0, err := agent.Mount([]string{nfs[0]}, agent.Options{})
		if err == nil {
			data, rerr := ag0.ReadFile("/shared.txt")
			ag0.Close()
			if rerr == nil && string(data) == "three processes, one file system" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted process never recovered: %v", err)
		}
		time.Sleep(250 * time.Millisecond)
	}
}
