package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// These tests cover the first §3.3 protocol optimization, which the paper
// describes but leaves unimplemented ("Deceit currently uses neither of
// these optimizations"): piggybacking an update on a token request. Here it
// is the only write path, so every write is one such cast.

// holderOf returns the token holder of the segment's current version as seen
// by s.
func holderOf(t *testing.T, s *Server, id SegID) simnet.NodeID {
	t.Helper()
	ctx := ctxT(t, 5*time.Second)
	info, err := s.Stat(ctx, id)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	for _, v := range info.Versions {
		if v.Major == info.Current {
			return v.Holder
		}
	}
	t.Fatalf("no current version in %+v", info)
	return ""
}

// fileGroupViewSize reports how many members node i's file-group view for id
// currently has; used to wait for failure detectors to install a
// partition/crash view.
func fileGroupViewSize(c *testCluster, i int, id SegID) int {
	nd := c.nodes[i]
	sg := nd.srv.tab.get(id)
	if sg == nil {
		return 0
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return len(sg.view.Members)
}

func TestPiggybackWriteFromNonHolder(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 15*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.MinReplicas = 3
	params.WriteSafety = 3
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("base")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// b does not hold the token: the write must still land in one piece and
	// move the token to b.
	pair, err := b.Write(ctx, id, WriteReq{Off: 0, Data: []byte("piggyback"), Truncate: true})
	if err != nil {
		t.Fatal(err)
	}
	if pair.Sub == 0 {
		t.Errorf("pair = %v, want advanced subversion", pair)
	}
	if h := holderOf(t, b, id); h != b.ID() {
		t.Errorf("holder = %v, want %v (token must move with the write's cast)", h, b.ID())
	}
	for i, nd := range c.nodes {
		data, _, err := nd.srv.Read(ctx, id, 0, 0, -1)
		if err != nil {
			t.Fatalf("read via node %d: %v", i, err)
		}
		if string(data) != "piggyback" {
			t.Errorf("node %d read %q", i, data)
		}
	}
}

func TestPiggybackMarksUnstableAtomically(t *testing.T) {
	c := newTestClusterCore(t, 3, func(o *Options) { o.StabilityDelay = 300 * time.Millisecond })
	ctx := ctxT(t, 15*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.MinReplicas = 3
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("stable state")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// A write must leave the file unstable — its one cast carries the §3.4
	// notification — and stability must return after the idle period.
	if _, err := b.Write(ctx, id, WriteReq{Off: 0, Data: []byte("one shot cast!"), Truncate: true}); err != nil {
		t.Fatal(err)
	}
	// The write may return on a remote replica's ack before the local apply
	// lands, so poll: within the stability window every member must observe
	// the unstable mark that the combined cast carried.
	waitUntil(t, 2*time.Second, "unstable mark from the write's cast", func() bool {
		info, err := b.Stat(ctx, id)
		if err != nil {
			return false
		}
		for _, v := range info.Versions {
			if v.Major == info.Current && v.Unstable {
				return true
			}
		}
		return false
	})
	waitStable(t, b, id)
}

func TestPiggybackExpectConflict(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 15*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.MinReplicas = 2
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := a.Write(ctx, id, WriteReq{Data: []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// A stale expectation must be rejected, and a conditional write that
	// lost its race must move nothing: the token stays with a and the file
	// stays stable, at every member.
	_, err = b.Write(ctx, id, WriteReq{Data: []byte("xx"), Expect: pair})
	if !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("err = %v, want ErrVersionConflict", err)
	}
	for _, s := range []*Server{a, b} {
		info, err := s.Stat(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v := info.Versions[0]; v.Holder != a.ID() || v.Unstable {
			t.Errorf("%v after the rejected write: holder %v, unstable %v; want holder %v, stable", s.ID(), v.Holder, v.Unstable, a.ID())
		}
	}
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Errorf("data = %q after rejected conditional write", data)
	}

	// In a batch, the ops after a refused conditional first op still apply.
	if _, err := b.WriteBatch(ctx, id, []WriteReq{
		{Data: []byte("xx"), Expect: pair},
		{Off: 2, Data: []byte("!")},
	}); !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("batch err = %v, want ErrVersionConflict", err)
	}
	if data, _, err = b.Read(ctx, id, 0, 0, -1); err != nil || string(data) != "v2!" {
		t.Errorf("data = %q, %v after a batch whose first op was refused; want %q", data, err, "v2!")
	}
}

func TestPiggybackRespectsAvailabilityUnderPartition(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 15*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.MinReplicas = 3
	params.Avail = AvailMedium
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("before split")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// Isolate b in a minority partition.
	c.net.Partition([]simnet.NodeID{"srv0", "srv2"}, []simnet.NodeID{"srv1"})
	waitUntil(t, 5*time.Second, "partition views", func() bool {
		return fileGroupViewSize(c, 1, id) == 1
	})

	// The write's token request must still obey the medium availability
	// constraint: no majority, no token, no write.
	wctx := ctxT(t, 3*time.Second)
	_, err = b.Write(wctx, id, WriteReq{Data: []byte("minority")})
	if !errors.Is(err, ErrWriteUnavailable) {
		t.Fatalf("minority write err = %v, want ErrWriteUnavailable", err)
	}
	c.net.Heal()
}

func TestPiggybackStreamThenStabilityReturns(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 20*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.MinReplicas = 2
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("start")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// The first write of b's stream moves the token; the rest find it held
	// and have it granted trivially in the same cast. All must apply in
	// order.
	want := ""
	for i := 0; i < 8; i++ {
		chunk := []byte{byte('0' + i)}
		want += string(chunk)
		if _, err := b.Write(ctx, id, WriteReq{Off: int64(i), Data: chunk, Truncate: i == 0}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	waitStable(t, b, id)
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != want {
		t.Errorf("data = %q, want %q", data, want)
	}
}

// TestHolderStreamWriteWaitsOnlyForSafety covers a write from the holder of
// an unstable stream. Its slot moves no token and marks nothing, so it waits
// only for its write safety level's replies (§3.3, §4): at safety 1 it
// returns while another member's delivery is paused, and at safety 0 it
// returns before any reply could have arrived.
func TestHolderStreamWriteWaitsOnlyForSafety(t *testing.T) {
	iopts := testISISOpts()
	iopts.SuspectTimeout = 10 * time.Second // the paused member stays in the view
	copts := testCoreOpts()
	copts.StabilityDelay = time.Minute // the stream stays unstable
	c := newTestClusterFull(t, 2, iopts, copts)
	ctx := ctxT(t, 20*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv
	const latency = 100 * time.Millisecond // one way: any reply takes twice that

	for safety, bound := range []time.Duration{latency, 2*latency + 300*time.Millisecond} {
		t.Run(fmt.Sprintf("safety %d", safety), func(t *testing.T) {
			c.net.SetLatency(0, 0)
			params := DefaultParams()
			params.WriteSafety = safety
			// b creates the file, so b sequences its casts: a's own delivery
			// is a round trip away.
			id, err := b.Create(ctx, params)
			if err != nil {
				t.Fatal(err)
			}
			// a's first write takes the token and marks the file unstable.
			if _, err := a.Write(ctx, id, WriteReq{Data: []byte("first")}); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, "b sees a's stream", func() bool {
				info, err := b.Stat(ctx, id)
				return err == nil && info.Versions[0].Unstable && info.Versions[0].Holder == a.ID()
			})

			c.net.SetLatency(latency, 0)
			sgb := b.tab.get(id)
			sgb.mu.Lock() // pause b's deliveries for this file
			start := time.Now()
			wctx, cancel := context.WithTimeout(ctx, 3*bound)
			_, err = a.Write(wctx, id, WriteReq{Data: []byte("next")})
			cancel()
			took := time.Since(start)
			sgb.mu.Unlock()
			if err != nil || took > bound {
				t.Fatalf("holder's write took %v (%v) with b paused, want under %v", took, err, bound)
			}
			c.net.SetLatency(0, 0)
			waitUntil(t, 5*time.Second, "the write lands", func() bool {
				data, _, err := b.Read(ctx, id, 0, 0, -1)
				return err == nil && string(data) == "nextt"
			})
		})
	}
}
