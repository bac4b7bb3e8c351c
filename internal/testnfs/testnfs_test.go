package testnfs

import (
	"repro/internal/derr"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/sunrpc"
	"repro/internal/wire"
)

// TestNFSCellSetupTeardown: the scaffolding the load harness and gateway
// tests stand on must itself hold — n servers come up with distinct live
// NFS endpoints, serve real client traffic, and tear down cleanly.
func TestNFSCellSetupTeardown(t *testing.T) {
	c, err := NewNFSCell(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if len(c.Nodes) != 3 || len(c.IDs) != 3 {
		t.Fatalf("cell has %d nodes / %d ids, want 3/3", len(c.Nodes), len(c.IDs))
	}
	addrs := c.Addrs()
	if len(addrs) != 3 {
		t.Fatalf("Addrs() = %v, want 3 endpoints", addrs)
	}
	seen := map[string]bool{}
	for i, a := range addrs {
		if a == "" || seen[a] {
			t.Errorf("addr %d = %q: empty or duplicate", i, a)
		}
		seen[a] = true
		if c.Nodes[i].Addr != a {
			t.Errorf("Addrs()[%d] = %q but Nodes[%d].Addr = %q", i, a, i, c.Nodes[i].Addr)
		}
	}

	// Every server serves the same namespace: write through one endpoint,
	// read through another.
	agW, err := agent.Mount(addrs[:1], agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer agW.Close()
	if err := agW.WriteFile("/cell.txt", []byte("cell up")); err != nil {
		t.Fatal(err)
	}
	agR, err := agent.Mount(addrs[2:], agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer agR.Close()
	data, err := agR.ReadFile("/cell.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "cell up" {
		t.Fatalf("read through third server = %q, want %q", data, "cell up")
	}
}

// TestCrashNFSSemantics: CrashNFS must hand back the dead node's store,
// nil the slot (so Addrs skips it), and leave the survivors serving.
func TestCrashNFSSemantics(t *testing.T) {
	c, err := NewNFSCell(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st := c.CrashNFS(1)
	if st == nil {
		t.Fatal("CrashNFS returned no store")
	}
	if c.Nodes[1] != nil {
		t.Error("crashed node still in Nodes")
	}
	if got := c.Addrs(); len(got) != 2 {
		t.Errorf("Addrs() after crash = %v, want 2 live endpoints", got)
	}
	if again := c.CrashNFS(1); again != nil {
		t.Error("double crash returned a store")
	}

	// Survivors keep serving client traffic.
	ag, err := agent.Mount(c.Addrs(), agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	if err := derr.RetryIf(10*time.Second, agent.IsTransient, func() error {
		return ag.WriteFile("/survivor.txt", []byte("ok"))
	}); err != nil {
		t.Fatalf("write after crash: %v", err)
	}
}

// TestRestartNFSNodeSemantics: RestartNFSNode must reboot a crashed node on
// its old address with its old store, put it back into the cell, and the
// rejoined server must serve pre-crash data to clients that mount only it —
// the reconnect contract gateways and the chaos harness rely on.
func TestRestartNFSNodeSemantics(t *testing.T) {
	c, err := NewNFSCell(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ag, err := agent.Mount(c.Addrs()[:1], agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	if err := ag.WriteFile("/persist.txt", []byte("survives restart")); err != nil {
		t.Fatal(err)
	}

	victim := 2
	oldAddr := c.Nodes[victim].Addr
	st := c.CrashNFS(victim)

	nd, err := c.RestartNFSNode(victim, st, oldAddr, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes[victim] != nd {
		t.Error("restarted node not installed in Nodes")
	}
	if nd.Addr != oldAddr {
		t.Errorf("restarted on %q, want the old address %q", nd.Addr, oldAddr)
	}
	if nd.Store != st {
		t.Error("restarted node not using the store it crashed with")
	}

	// A client mounting only the restarted server must see pre-crash data
	// once the node has rejoined the group (retried while it recovers).
	ag2, err := agent.Mount([]string{nd.Addr}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag2.Close()
	var data []byte
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if data, err = ag2.ReadFile("/persist.txt"); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if string(data) != "survives restart" {
		t.Fatalf("read through restarted node = %q (err %v), want %q", data, err, "survives restart")
	}
}

// TestRestartNFSNodeFreshStore: a restart is also how a wiped replacement
// node joins — an empty store must come back and learn the namespace from
// the survivors rather than serving its own empty one.
func TestRestartNFSNodeFreshStore(t *testing.T) {
	c, err := NewNFSCell(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ag, err := agent.Mount(c.Addrs()[:1], agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag.Close()
	if err := ag.WriteFile("/kept.txt", []byte("kept")); err != nil {
		t.Fatal(err)
	}

	victim := 1
	oldAddr := c.Nodes[victim].Addr
	c.CrashNFS(victim)
	nd, err := c.RestartNFSNode(victim, store.NewMemStore(), oldAddr, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	ag2, err := agent.Mount([]string{nd.Addr}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ag2.Close()
	var data []byte
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if data, err = ag2.ReadFile("/kept.txt"); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if string(data) != "kept" {
		t.Fatalf("read through wiped-and-restarted node = %q (err %v), want %q", data, err, "kept")
	}
}

// TestMixedVersionCellServesTraffic is the quick half of the compatibility
// matrix: one server in a live cell advertises an older (same-major) wire
// protocol, agents negotiate the lower session minor against it, and writes
// replicated through the skewed node read back through every other node.
// The slow half — the same skew surviving the full chaos schedule — runs in
// the load package's TestChaosGracefulDegradation.
func TestMixedVersionCellServesTraffic(t *testing.T) {
	c, err := NewNFSCell(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	skewed := c.Nodes[1]
	skewed.Server.RPC().SetProtocolVersion(wire.ProtocolMajor, wire.ProtocolMinor-1)

	cl, err := sunrpc.Dial(skewed.Addr)
	if err != nil {
		t.Fatalf("dial skewed node: %v", err)
	}
	if got := cl.SessionMinor(); got != wire.ProtocolMinor-1 {
		t.Errorf("session minor with skewed node = %d, want %d", got, wire.ProtocolMinor-1)
	}
	cl.Close()

	agW, err := agent.Mount([]string{skewed.Addr}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer agW.Close()
	if err := agW.WriteFile("/mixed.txt", []byte("mixed-version cell up")); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 2} {
		agR, err := agent.Mount([]string{c.Nodes[i].Addr}, agent.Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := agR.ReadFile("/mixed.txt")
		agR.Close()
		if err != nil {
			t.Fatalf("read via node %d: %v", i, err)
		}
		if string(data) != "mixed-version cell up" {
			t.Fatalf("read via node %d = %q", i, data)
		}
	}

	// An agent from a hypothetical next major must be refused up front with
	// the typed incompatibility, not a hung or garbled session.
	_, err = sunrpc.DialVersion(c.Nodes[0].Addr, wire.Meta{Major: wire.ProtocolMajor + 1})
	if derr.CodeOf(err) != derr.CodeIncompatible {
		t.Fatalf("next-major dial err = %v, want CodeIncompatible", err)
	}
}
