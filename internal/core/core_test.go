package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/version"
)

// testCluster is a cell of Deceit segment servers on a simulated network.
type testCluster struct {
	t     *testing.T
	net   *simnet.Network
	ids   []simnet.NodeID
	nodes []*testNode
	iopts isis.Options
	copts Options
}

type testNode struct {
	id    simnet.NodeID
	demux *simnet.Demux
	proc  *isis.Process
	st    store.Store
	srv   *Server
}

func testISISOpts() isis.Options {
	return isis.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    80 * time.Millisecond,
		RetransInterval:   25 * time.Millisecond,
		ProbeInterval:     60 * time.Millisecond,
	}
}

func testCoreOpts() Options {
	return Options{
		StabilityDelay: 60 * time.Millisecond,
		OpTimeout:      2 * time.Second,
		JoinWait:       700 * time.Millisecond,
	}
}

func newTestCluster(t *testing.T, n int) *testCluster {
	return newTestClusterOpts(t, n, testISISOpts())
}

// newTestClusterCore builds a cluster whose segment servers run with
// modified core options (e.g. the §3.3 protocol optimizations).
func newTestClusterCore(t *testing.T, n int, mutate func(*Options)) *testCluster {
	t.Helper()
	copts := testCoreOpts()
	mutate(&copts)
	return newTestClusterFull(t, n, testISISOpts(), copts)
}

func newTestClusterOpts(t *testing.T, n int, iopts isis.Options) *testCluster {
	return newTestClusterFull(t, n, iopts, testCoreOpts())
}

func newTestClusterFull(t *testing.T, n int, iopts isis.Options, copts Options) *testCluster {
	return newTestClusterStores(t, n, iopts, copts, func(int) store.Store { return store.NewMemStore() })
}

// newTestClusterStores builds a cluster whose node i persists into newStore(i).
func newTestClusterStores(t *testing.T, n int, iopts isis.Options, copts Options, newStore func(i int) store.Store) *testCluster {
	t.Helper()
	c := &testCluster{t: t, net: simnet.NewNetwork(), iopts: iopts, copts: copts}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, simnet.NodeID(fmt.Sprintf("srv%d", i)))
	}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, c.startNode(c.ids[i], newStore(i)))
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			if nd != nil {
				nd.srv.Close()
				nd.proc.Close()
			}
		}
		c.net.Close()
	})
	return c
}

func (c *testCluster) startNode(id simnet.NodeID, st store.Store) *testNode {
	ep := c.net.Attach(id)
	demux := simnet.NewDemux(ep)
	proc := isis.NewProcess(demux.Channel(0), c.ids, c.iopts)
	srv := NewServer(proc, demux.Channel(1), st, c.copts)
	return &testNode{id: id, demux: demux, proc: proc, st: st, srv: srv}
}

// crash simulates a machine crash of node i.
func (c *testCluster) crash(i int) {
	nd := c.nodes[i]
	nd.srv.Close()
	nd.proc.Close()
	c.net.Detach(nd.id)
	c.nodes[i] = nil
}

// restart brings node i back with its (possibly crash-truncated) store.
func (c *testCluster) restart(i int, st store.Store) *testNode {
	nd := c.startNode(c.ids[i], st)
	c.nodes[i] = nd
	return nd
}

func ctxT(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func waitUntil(t *testing.T, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCreateWriteRead(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 10*time.Second)
	srv := c.nodes[0].srv

	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pair, err := srv.Write(ctx, id, WriteReq{Off: 0, Data: []byte("hello world")})
	if err != nil {
		t.Fatal(err)
	}
	if pair != (version.Pair{Major: 1, Sub: 1}) {
		t.Errorf("pair = %v", pair)
	}
	data, rpair, err := srv.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello world" || rpair != pair {
		t.Errorf("read = %q %v", data, rpair)
	}

	// Partial read and offset write.
	data, _, err = srv.Read(ctx, id, 0, 6, 5)
	if err != nil || string(data) != "world" {
		t.Errorf("partial read = %q %v", data, err)
	}
	if _, err := srv.Write(ctx, id, WriteReq{Off: 6, Data: []byte("deceit")}); err != nil {
		t.Fatal(err)
	}
	data, _, _ = srv.Read(ctx, id, 0, 0, -1)
	if string(data) != "hello deceit" {
		t.Errorf("after offset write = %q", data)
	}

	// Truncating write.
	if _, err := srv.Write(ctx, id, WriteReq{Off: 5, Data: nil, Truncate: true}); err != nil {
		t.Fatal(err)
	}
	data, _, _ = srv.Read(ctx, id, 0, 0, -1)
	if string(data) != "hello" {
		t.Errorf("after truncate = %q", data)
	}
}

func TestReadForwardingFromNonReplica(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 10*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("forward me")}); err != nil {
		t.Fatal(err)
	}
	// Wait for stability so a non-holder replica may serve.
	waitStable(t, a, id)

	// Server b has no replica: the read is forwarded transparently (Fig 2).
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "forward me" {
		t.Errorf("forwarded read = %q", data)
	}
	// b joined the file group but must not have created a replica (migration
	// defaults to off, §4).
	info, err := b.Stat(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions[0].Replicas) != 1 {
		t.Errorf("replicas = %v, want 1 (migration off)", info.Versions[0].Replicas)
	}

	// Straight after a write the file is unstable (§3.4): the non-replica's
	// read forwards to the token holder and sees the update. A read token
	// needs a local replica, so b never casts for one.
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("forward again"), Truncate: true}); err != nil {
		t.Fatal(err)
	}
	data, _, err = b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "forward again" {
		t.Errorf("forwarded read after write = %q", data)
	}
	if st := b.ReadStats(); st.Forwarded != 2 || st.Local != 0 || st.TokenCasts != 0 {
		t.Errorf("read stats = %+v, want 2 forwarded, 0 local, 0 token casts", st)
	}
}

func waitStable(t *testing.T, s *Server, id SegID) {
	t.Helper()
	ctx := ctxT(t, 5*time.Second)
	waitUntil(t, 5*time.Second, "stability", func() bool {
		info, err := s.Stat(ctx, id)
		if err != nil {
			return false
		}
		for _, v := range info.Versions {
			if v.Unstable {
				return false
			}
		}
		return true
	})
}

func TestMigrationCreatesLocalReplica(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 10*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.Migration = true
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("migrate me")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	if _, _, err := b.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	// The background migration should land a replica on b.
	waitUntil(t, 5*time.Second, "migration", func() bool {
		info, err := b.Stat(ctx, id)
		if err != nil {
			return false
		}
		for _, r := range info.Versions[0].Replicas {
			if r == b.ID() {
				return true
			}
		}
		return false
	})
	// And now b serves the data locally.
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil || string(data) != "migrate me" {
		t.Errorf("post-migration read = %q %v", data, err)
	}
}

func TestAddReplicaAndCrashSurvival(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 15*time.Second)
	a := c.nodes[0].srv

	params := DefaultParams()
	params.WriteSafety = 2
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("replicated data")}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Off: 15, Data: []byte(" more")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// Crash the creator; the replica on srv1 must still serve the data.
	c.crash(0)
	b := c.nodes[1].srv
	waitUntil(t, 5*time.Second, "failure detection", func() bool {
		info, err := b.Stat(ctx, id)
		return err == nil && len(info.Versions) > 0
	})
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "replicated data more" {
		t.Errorf("survivor read = %q", data)
	}
}

func TestMinReplicaLevelRegenerates(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 15*time.Second)
	a := c.nodes[0].srv

	params := DefaultParams()
	params.MinReplicas = 3
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	// A write triggers reply counting and regeneration (§3.1 method 1), but
	// only group members can host replicas; open the segment on the others.
	if _, _, err := c.nodes[1].srv.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.nodes[2].srv.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("spread me")}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 8*time.Second, "replica regeneration", func() bool {
		info, err := a.Stat(ctx, id)
		return err == nil && len(info.Versions) == 1 && len(info.Versions[0].Replicas) >= 3
	})
}

func TestOptimisticConcurrencyConflict(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 10*time.Second)
	srv := c.nodes[0].srv

	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, pair, err := srv.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	// First conditional write succeeds.
	p2, err := srv.Write(ctx, id, WriteReq{Data: []byte("v1"), Expect: pair})
	if err != nil {
		t.Fatal(err)
	}
	// Replaying with the stale pair must fail like an aborted transaction
	// (§5.1).
	if _, err := srv.Write(ctx, id, WriteReq{Data: []byte("v2"), Expect: pair}); err != ErrVersionConflict {
		t.Fatalf("stale conditional write err = %v, want ErrVersionConflict", err)
	}
	// Retrying with the fresh pair succeeds.
	if _, err := srv.Write(ctx, id, WriteReq{Data: []byte("v2"), Expect: p2}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenMovesBetweenWriters(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 15*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("from-a")}); err != nil {
		t.Fatal(err)
	}
	// b writes: the token must pass to b, not fork a version.
	if _, err := b.Write(ctx, id, WriteReq{Off: 6, Data: []byte(" then-b")}); err != nil {
		t.Fatal(err)
	}
	info, err := a.Stat(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 {
		t.Fatalf("versions = %d, want 1 (token pass, no branch)", len(info.Versions))
	}
	if info.Versions[0].Holder != b.ID() {
		t.Errorf("holder = %v, want %v", info.Versions[0].Holder, b.ID())
	}
	// a writes again: token returns.
	if _, err := a.Write(ctx, id, WriteReq{Off: 13, Data: []byte(" and-a")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "from-a then-b and-a" {
		t.Errorf("final data = %q", data)
	}
}

func TestSetParamsPropagates(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 10*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// b joins the group by reading.
	if _, _, err := b.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.MinReplicas = 2
	p.WriteSafety = 2
	p.Avail = AvailHigh
	if err := b.SetParams(ctx, id, p); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 3*time.Second, "param propagation", func() bool {
		got, err := a.GetParams(ctx, id)
		return err == nil && got == p
	})
}

func TestDeleteSegmentEverywhere(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 10*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("doomed")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}
	if err := a.Delete(ctx, id); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "deletion", func() bool {
		sctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
		defer cancel()
		_, _, err := b.Read(sctx, id, 0, 0, -1)
		return err != nil
	})
}

func TestWriteSafetyZeroIsAsync(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 10*time.Second)
	srv := c.nodes[0].srv

	params := DefaultParams()
	params.WriteSafety = 0
	params.Stability = false
	id, err := srv.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := srv.Write(ctx, id, WriteReq{Data: []byte("async")})
	if err != nil {
		t.Fatal(err)
	}
	if !pair.IsZero() {
		t.Errorf("async write returned pair %v, want zero", pair)
	}
	waitUntil(t, 3*time.Second, "async apply", func() bool {
		data, _, err := srv.Read(ctx, id, 0, 0, -1)
		return err == nil && string(data) == "async"
	})
}

func TestApplyDataSemantics(t *testing.T) {
	cases := []struct {
		name     string
		initial  string
		off      int64
		payload  string
		truncate bool
		want     string
	}{
		{"append to empty", "", 0, "abc", false, "abc"},
		{"overwrite middle", "abcdef", 2, "XY", false, "abXYef"},
		{"extend past end", "abc", 5, "zz", false, "abc\x00\x00zz"},
		{"truncate shorter", "abcdef", 2, "", true, "ab"},
		{"truncate with data", "abcdef", 2, "Z", true, "abZ"},
		{"truncate longer", "ab", 4, "Q", true, "ab\x00\x00Q"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := applyData([]byte(tc.initial), tc.off, []byte(tc.payload), tc.truncate)
			if string(got) != tc.want {
				t.Errorf("applyData = %q, want %q", got, tc.want)
			}
		})
	}
}

// Property: applyData never loses bytes before the write offset.
func TestQuickApplyDataPrefixPreserved(t *testing.T) {
	f := func(initial []byte, off16 uint16, payload []byte, trunc bool) bool {
		off := int64(off16 % 512)
		out := applyData(append([]byte(nil), initial...), off, payload, trunc)
		limit := off
		if int64(len(initial)) < limit {
			limit = int64(len(initial))
		}
		if int64(len(out)) < limit {
			return false
		}
		return bytes.Equal(out[:limit], initial[:limit])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
