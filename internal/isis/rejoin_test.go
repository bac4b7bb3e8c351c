package isis

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestImmediateRestartRejoin reproduces the harder recovery scenario: the
// member restarts and rejoins BEFORE the survivors' failure detector has
// removed its old incarnation from the view. The join must still produce a
// fully connected group: casts from the new incarnation reach everyone.
func TestImmediateRestartRejoin(t *testing.T) {
	c := newCell(t, 2)
	apps := []*testApp{{id: "n0"}, {id: "n1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	g0, err := c.procs[0].Create("g", apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.procs[1].Join(ctx, "g", apps[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "full view", func() bool {
		return len(g0.View().Members) == 2
	})

	// n1 crashes and is replaced immediately — no waiting for suspicion.
	c.procs[1].Close()
	c.net.Detach("n1")
	ep := c.net.Attach("n1")
	p1 := NewProcess(ep, c.ids, fastOpts())
	t.Cleanup(p1.Close)
	app1 := &testApp{id: "n1b"}
	g1, err := p1.Join(ctx, "g", app1)
	if err != nil {
		t.Fatalf("immediate rejoin: %v", err)
	}

	waitFor(t, 5*time.Second, "views converge", func() bool {
		return len(g0.View().Members) == 2 && len(g1.View().Members) == 2
	})

	// A cast from the new incarnation must apply at BOTH members.
	if _, err := g1.Cast(ctx, []byte("reborn"), All); err != nil {
		t.Fatalf("cast from reborn member: %v", err)
	}
	waitFor(t, 3*time.Second, "delivery at n0", func() bool {
		for _, d := range apps[0].deliveredList() {
			if d == "reborn" {
				return true
			}
		}
		return false
	})
	// And the reverse direction.
	if _, err := g0.Cast(ctx, []byte("hello-new"), All); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "delivery at reborn n1", func() bool {
		for _, d := range app1.deliveredList() {
			if d == "hello-new" {
				return true
			}
		}
		return false
	})
}

// TestRepeatedReincarnation: three crash/restart cycles of the same node
// id; each incarnation's casts must deliver at the survivor (regression
// test for the per-origin dedup state surviving reincarnation, which
// silently swallowed recycled message ids).
func TestRepeatedReincarnation(t *testing.T) {
	c := newCell(t, 2)
	app0 := &testApp{id: "n0"}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	g0, err := c.procs[0].Create("g", app0)
	if err != nil {
		t.Fatal(err)
	}
	cur := c.procs[1]
	if _, err := cur.Join(ctx, "g", &testApp{id: "n1"}); err != nil {
		t.Fatal(err)
	}

	for round := 1; round <= 3; round++ {
		cur.Close()
		c.net.Detach("n1")
		ep := c.net.Attach("n1")
		cur = NewProcess(ep, c.ids, fastOpts())
		app := &testApp{id: "n1"}
		g1, err := cur.Join(ctx, "g", app)
		if err != nil {
			t.Fatalf("round %d rejoin: %v", round, err)
		}
		msg := []byte{'r', byte('0' + round)}
		if _, err := g1.Cast(ctx, msg, All); err != nil {
			t.Fatalf("round %d cast: %v", round, err)
		}
		waitFor(t, 5*time.Second, "delivery at survivor", func() bool {
			for _, d := range app0.deliveredList() {
				if d == string(msg) {
					return true
				}
			}
			return false
		})
		// The survivor's own casts must reach the newcomer too.
		if _, err := g0.Cast(ctx, append(msg, '!'), All); err != nil {
			t.Fatalf("round %d survivor cast: %v", round, err)
		}
	}
	cur.Close()
}

// TestCrashedMemberRejoinsWithSameID reproduces a Deceit recovery scenario:
// a group member crashes, the survivors install a shrunken view, and then a
// NEW process with the SAME node id joins the group again. Casts from the
// rejoined incarnation must deliver at every member, and vice versa.
func TestCrashedMemberRejoinsWithSameID(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	g0, err := c.procs[0].Create("g", apps[0])
	if err != nil {
		t.Fatal(err)
	}
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.procs[2].Join(ctx, "g", apps[2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "full view", func() bool {
		return len(g0.View().Members) == 3
	})

	// n2 crashes: process closed, endpoint detached.
	c.procs[2].Close()
	c.net.Detach("n2")
	waitFor(t, 3*time.Second, "crash view", func() bool {
		return len(g0.View().Members) == 2
	})

	// A new incarnation of n2 joins with the same id.
	ep := c.net.Attach("n2")
	p2 := NewProcess(ep, c.ids, fastOpts())
	t.Cleanup(p2.Close)
	app2 := &testApp{id: "n2b"}
	g2, err := p2.Join(ctx, "g", app2)
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	waitFor(t, 5*time.Second, "rejoined view at survivors", func() bool {
		return len(g0.View().Members) == 3 && len(g1.View().Members) == 3
	})
	waitFor(t, 5*time.Second, "rejoined view at newcomer", func() bool {
		return len(g2.View().Members) == 3
	})

	// A cast from the rejoined incarnation reaches everyone.
	replies, err := g2.Cast(ctx, []byte("from-rejoined"), All)
	if err != nil {
		t.Fatalf("cast from rejoined member: %v", err)
	}
	if len(replies) != 3 {
		t.Fatalf("cast from rejoined member got %d replies, want 3", len(replies))
	}
	waitFor(t, 3*time.Second, "delivery at n0", func() bool {
		for _, d := range apps[0].deliveredList() {
			if d == "from-rejoined" {
				return true
			}
		}
		return false
	})

	// And a cast from a survivor reaches the rejoined incarnation.
	if _, err := g0.Cast(ctx, []byte("from-survivor"), All); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, "delivery at rejoined n2", func() bool {
		for _, d := range app2.deliveredList() {
			if d == "from-survivor" {
				return true
			}
		}
		return false
	})
}

// TestLeaveThenRejoinCastsDeliver: a live process leaves a group and joins
// it again without restarting. Its message ids restart at 1 with the new
// membership, so the old members must not take them for duplicates of the
// casts it sent before it left.
func TestLeaveThenRejoinCastsDeliver(t *testing.T) {
	c := newCell(t, 2)
	app0 := &testApp{id: "n0"}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := c.procs[0].Create("g", app0); err != nil {
		t.Fatal(err)
	}
	g1, err := c.procs[1].Join(ctx, "g", &testApp{id: "n1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"a", "b"} {
		if _, err := g1.Cast(ctx, []byte(m), All); err != nil {
			t.Fatal(err)
		}
	}
	if err := g1.Leave(); err != nil {
		t.Fatal(err)
	}
	// The leave finishes asynchronously; until it does, Join reports the
	// process still a member.
	for {
		g1, err = c.procs[1].Join(ctx, "g", &testApp{id: "n1"})
		if !errors.Is(err, errGroupExists) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	castCtx, castCancel := context.WithTimeout(ctx, time.Second)
	defer castCancel()
	if _, err := g1.Cast(castCtx, []byte("c"), All); err != nil {
		t.Fatalf("cast after rejoin: %v (n0 delivered %v)", err, app0.deliveredList())
	}
}
