package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simnet"
)

// These tests cover the first §3.3 protocol optimization, which the paper
// describes but leaves unimplemented ("Deceit currently uses neither of
// these optimizations"): piggybacking an update on a token request.

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
	c := newTestClusterCore(t, 3, func(o *Options) { o.Piggyback = true })
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
		t.Errorf("holder = %v, want %v (token must move with the piggybacked request)", h, b.ID())
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
	c := newTestClusterCore(t, 3, func(o *Options) {
		o.Piggyback = true
		o.StabilityDelay = 300 * time.Millisecond
	})
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

	// A piggybacked write must leave the file unstable — the combined cast
	// carries the §3.4 notification — and stability must return after the
	// idle period.
	if _, err := b.Write(ctx, id, WriteReq{Off: 0, Data: []byte("one shot cast!"), Truncate: true}); err != nil {
		t.Fatal(err)
	}
	// The write may return on a remote replica's ack before the local apply
	// lands, so poll: within the stability window every member must observe
	// the unstable mark that the combined cast carried.
	waitUntil(t, 2*time.Second, "unstable mark from piggybacked cast", func() bool {
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
	c := newTestClusterCore(t, 2, func(o *Options) { o.Piggyback = true })
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

	// A stale expectation must be rejected even on the piggybacked path.
	_, err = b.Write(ctx, id, WriteReq{Data: []byte("xx"), Expect: pair})
	if !errors.Is(err, ErrVersionConflict) {
		t.Fatalf("err = %v, want ErrVersionConflict", err)
	}
	data, _, err := b.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "v2" {
		t.Errorf("data = %q after rejected conditional write", data)
	}
	// The rejected cast still passed the token and marked the file unstable;
	// the new holder must return it to stability.
	waitStable(t, b, id)
	waitStable(t, a, id)
}

func TestPiggybackRespectsAvailabilityUnderPartition(t *testing.T) {
	c := newTestClusterCore(t, 3, func(o *Options) { o.Piggyback = true })
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

	// The piggybacked token request must still obey the medium availability
	// constraint: no majority, no token, no write.
	wctx := ctxT(t, 3*time.Second)
	_, err = b.Write(wctx, id, WriteReq{Data: []byte("minority")})
	if !errors.Is(err, ErrWriteUnavailable) {
		t.Fatalf("minority write err = %v, want ErrWriteUnavailable", err)
	}
	c.net.Heal()
}

func TestPiggybackStreamThenStabilityReturns(t *testing.T) {
	c := newTestClusterCore(t, 3, func(o *Options) { o.Piggyback = true })
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

	// First write of b's stream piggybacks; the rest hold the token and use
	// the plain update path. All must apply in order.
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
