package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/derr"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/version"
)

// commitFault is a store.FaultHook that fails every commit once armed.
type commitFault struct{ armed atomic.Bool }

func (f *commitFault) Crashpoint(p store.CrashPoint) bool {
	return p == store.CrashBeforeCommit && f.armed.Load()
}

func (f *commitFault) Tear(n int) int { return n }

// newLogCluster builds an n-node cluster on log stores with checkpoints off,
// so Stats().Syncs counts exactly one fsync per commit. faults[i], if
// non-nil, is node i's fault hook.
func newLogCluster(t *testing.T, n int, copts Options, faults ...store.FaultHook) (*testCluster, []*store.LogStore) {
	t.Helper()
	logs := make([]*store.LogStore, n)
	for i := range logs {
		opts := store.LogOptions{CheckpointBytes: -1}
		if i < len(faults) {
			opts.Faults = faults[i]
		}
		ls, err := store.OpenLog(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		logs[i] = ls
		t.Cleanup(func() { ls.Close() })
	}
	c := newTestClusterStores(t, n, testISISOpts(), copts, func(i int) store.Store { return logs[i] })
	return c, logs
}

func syncs(logs []*store.LogStore) []uint64 {
	out := make([]uint64, len(logs))
	for i, l := range logs {
		out[i] = l.Stats().Syncs
	}
	return out
}

// TestFailedCommitFailsWrite checks that a write whose commit fails at the
// writing member is not acknowledged: the member's reply carries
// CodeInternal and Write returns it.
func TestFailedCommitFailsWrite(t *testing.T) {
	fault := &commitFault{}
	c, _ := newLogCluster(t, 3, testCoreOpts(), fault)
	ctx := ctxT(t, 20*time.Second)
	srv := c.nodes[0].srv

	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	fault.armed.Store(true)
	_, err = srv.Write(ctx, id, WriteReq{Data: []byte("never durable")})
	if err == nil {
		t.Fatal("write acknowledged although its store commit failed")
	}
	if code := derr.CodeOf(err); code != derr.CodeInternal {
		t.Fatalf("write error code = %v (%v), want %v", code, err, derr.CodeInternal)
	}
}

// TestOneCommitPerDelivery pins the commit count: a create, and every
// state-changing cast a member delivers — one op or a batch — costs that
// member exactly one fsync, whether or not it holds a replica.
func TestOneCommitPerDelivery(t *testing.T) {
	copts := testCoreOpts()
	copts.StabilityDelay = time.Minute // keep the file unstable: every write below is hot
	c, logs := newLogCluster(t, 3, copts)
	ctx := ctxT(t, 30*time.Second)
	srv := c.nodes[0].srv

	// The default replica level of 1 keeps replica regeneration out of the
	// counts: the second replica is added explicitly below.
	before := syncs(logs)
	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := logs[0].Stats().Syncs - before[0]; got != 1 {
		t.Errorf("create cost %d fsyncs at its server, want 1", got)
	}

	// Cold write, a second replica on srv1, and srv2 joined without one.
	if _, err := srv.Write(ctx, id, WriteReq{Data: []byte("seed")}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nodes[2].srv.Stat(ctx, id); err != nil {
		t.Fatal(err)
	}
	var last version.Pair
	applied := func() bool {
		for _, nd := range c.nodes {
			info, err := nd.srv.Stat(ctx, id)
			if err != nil || len(info.Versions) != 1 || len(info.Versions[0].Replicas) != 2 ||
				info.Versions[0].Pair != last || !info.Versions[0].Unstable {
				return false
			}
		}
		return true
	}
	info, err := srv.Stat(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	last = info.Versions[0].Pair
	waitUntil(t, 10*time.Second, "all members settled", applied)

	const hot = 4
	before = syncs(logs)
	for i := 0; i < hot; i++ {
		if last, err = srv.Write(ctx, id, WriteReq{Off: int64(i), Data: []byte("h")}); err != nil {
			t.Fatal(err)
		}
	}
	waitUntil(t, 10*time.Second, "hot writes applied everywhere", applied)
	for i, n := range syncs(logs) {
		if got := n - before[i]; got != hot {
			t.Errorf("srv%d: %d hot writes cost %d fsyncs, want %d", i, hot, got, hot)
		}
	}

	before = syncs(logs)
	reqs := make([]WriteReq, 8)
	for i := range reqs {
		reqs[i] = WriteReq{Off: int64(i), Data: []byte("b")}
	}
	pairs, err := srv.WriteBatch(ctx, id, reqs)
	if err != nil {
		t.Fatal(err)
	}
	last = pairs[len(pairs)-1]
	waitUntil(t, 10*time.Second, "batch applied everywhere", applied)
	for i, n := range syncs(logs) {
		if got := n - before[i]; got != 1 {
			t.Errorf("srv%d: one 8-op batch cost %d fsyncs, want 1", i, got)
		}
	}
}

// TestColdWriteIsOneCast pins the cost of a cold write: a write from a
// server that does not hold the token, to a stable file with a replica on
// every member, is one cast — the token pass, the unstable mark and the
// update share its slot — so every member pays exactly one fsync for it,
// where Table 1's three casts would cost three.
func TestColdWriteIsOneCast(t *testing.T) {
	copts := testCoreOpts()
	copts.StabilityDelay = time.Minute // keep the return to stability out of the counts
	c, logs := newLogCluster(t, 3, copts)
	ctx := ctxT(t, 30*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	// A new file is stable, and adding replicas leaves it so.
	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range c.ids[1:] {
		if err := a.AddReplica(ctx, id, 0, r); err != nil {
			t.Fatal(err)
		}
	}
	settled := func(holder simnet.NodeID, unstable bool) func() bool {
		return func() bool {
			for _, nd := range c.nodes {
				info, err := nd.srv.Stat(ctx, id)
				if err != nil || len(info.Versions) != 1 {
					return false
				}
				v := info.Versions[0]
				if len(v.Replicas) != 3 || v.Holder != holder || v.Unstable != unstable {
					return false
				}
			}
			return true
		}
	}
	waitUntil(t, 10*time.Second, "three stable replicas held by srv0", settled(a.ID(), false))

	before := syncs(logs)
	if _, err := b.Write(ctx, id, WriteReq{Data: []byte("cold")}); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "token on srv1, file unstable everywhere", settled(b.ID(), true))
	time.Sleep(10 * c.iopts.HeartbeatInterval) // room for any further cast to land
	for i, n := range syncs(logs) {
		if got := n - before[i]; got != 1 {
			t.Errorf("srv%d: a cold write cost %d fsyncs, want 1 (one cast)", i, got)
		}
	}
	data, _, err := c.nodes[2].srv.Read(ctx, id, 0, 0, -1)
	if err != nil || string(data) != "cold" {
		t.Fatalf("read after the cold write = %q, %v", data, err)
	}
}

// TestTransferOutcomeWaitsForGroupHandle covers a transfer target that
// finishes its pull before its join has stored the group handle: its
// opReplicaReady must still reach the group, or the holder's transfer keeps
// the file frozen for updates until it times out.
func TestTransferOutcomeWaitsForGroupHandle(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 20*time.Second)
	srv0, srv1 := c.nodes[0].srv, c.nodes[1].srv
	id, err := srv0.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Stat(ctx, id); err != nil { // srv1 joins the group
		t.Fatal(err)
	}
	sg0, sg1 := srv0.tab.get(id), srv1.tab.get(id)
	sg1.mu.Lock()
	grp := sg1.group
	sg1.group = nil // as if srv1's join had not returned yet
	sg1.mu.Unlock()
	if _, err := srv0.castOne(ctx, sg0, &castMsg{
		Op: opBeginTransfer, Major: version.InitialMajor, Source: srv0.ID(), Target: srv1.ID(),
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // the pull and install finish meanwhile
	sg1.setGroup(grp)                  // the join returns and stores its handle
	waitUntil(t, 2*time.Second, "srv1 announced as a replica", func() bool {
		sg0.mu.Lock()
		defer sg0.mu.Unlock()
		ms := sg0.majors[version.InitialMajor]
		return !ms.transferring && ms.replicas[srv1.ID()]
	})
}
