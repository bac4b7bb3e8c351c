package core

import (
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/store"
)

func newEmptyStore() *store.MemStore { return store.NewMemStore() }

// Tests for the data preconditions on token regeneration and replica
// records, added after the chaos soak exposed "zombie forks": versions
// whose group-agreed metadata claimed replicas nobody actually held.

// TestTokenRegenerationRequiresData: a server partitioned away from every
// replica must not regenerate a token — it has no data to fork from — even
// under write availability "high".
func TestTokenRegenerationRequiresData(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 20*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	params := DefaultParams()
	params.Avail = AvailHigh // regeneration otherwise unconstrained
	params.MinReplicas = 1   // the sole replica lives on srv0
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("unforkable")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	// b joins the file group (metadata only, no replica).
	if _, _, err := b.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}

	// Cut b off with srv2 — neither has a replica of the file.
	c.net.Partition([]simnet.NodeID{"srv0"}, []simnet.NodeID{"srv1", "srv2"})
	waitUntil(t, 5*time.Second, "partition views", func() bool {
		return fileGroupViewSize(c, 1, id) <= 2
	})

	wctx := ctxT(t, 3*time.Second)
	_, err = b.Write(wctx, id, WriteReq{Data: []byte("dataless fork")})
	if err == nil {
		t.Fatal("write succeeded on a side with no replica data; a zombie fork was created")
	}
	c.net.Heal()

	// After the heal the original data is intact and no fork ever existed.
	waitUntil(t, 10*time.Second, "healed read", func() bool {
		rctx, cancel := ctxTimeout(2 * time.Second)
		defer cancel()
		data, _, err := b.Read(rctx, id, 0, 0, -1)
		return err == nil && string(data) == "unforkable"
	})
	info, err := a.Stat(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 {
		t.Errorf("versions = %d, want 1 (no dataless fork)", len(info.Versions))
	}
}

// TestTokenRegenerationPullsDataFirst: a partitioned side that contains a
// replica holder but whose *writer* lacks a replica must still regain write
// access — the writer pulls the data from the reachable replica before
// regenerating (§3.5: "file data is drawn from the existing available
// replica").
func TestTokenRegenerationPullsDataFirst(t *testing.T) {
	c := newTestCluster(t, 4)
	ctx := ctxT(t, 30*time.Second)
	a := c.nodes[0].srv

	params := DefaultParams()
	params.Avail = AvailHigh
	params.MinReplicas = 2
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("seed data")}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)
	// srv3 joins the group without a replica.
	d := c.nodes[3].srv
	if _, _, err := d.Read(ctx, id, 0, 0, -1); err != nil {
		t.Fatal(err)
	}

	// Partition: srv1 (replica holder) and srv3 (no replica) together;
	// the token holder srv0 on the other side.
	c.net.Partition([]simnet.NodeID{"srv0", "srv2"}, []simnet.NodeID{"srv1", "srv3"})
	waitUntil(t, 5*time.Second, "partition views", func() bool {
		return fileGroupViewSize(c, 3, id) == 2
	})

	// srv3 writes: it must pull srv1's replica, regenerate, and succeed.
	waitUntil(t, 10*time.Second, "minority write via pulled data", func() bool {
		wctx, cancel := ctxTimeout(3 * time.Second)
		defer cancel()
		_, err := d.Write(wctx, id, WriteReq{Off: 0, Data: []byte("forked with data"), Truncate: true})
		return err == nil
	})
	data, _, err := d.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "forked with data" {
		t.Errorf("post-fork read = %q", data)
	}
	c.net.Heal()
}

// TestPhantomReplicaRecordSelfHeals: a server listed as a replica holder
// that lost its data (restart with an empty store) corrects the group
// record instead of black-holing reads forever.
func TestPhantomReplicaRecordSelfHeals(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 30*time.Second)
	a := c.nodes[0].srv

	params := DefaultParams()
	params.MinReplicas = 2
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("real data")}); err != nil {
		t.Fatal(err)
	}
	if err := a.AddReplica(ctx, id, 0, c.ids[1]); err != nil {
		t.Fatal(err)
	}
	waitStable(t, a, id)

	// srv1 crashes and comes back with a wiped store: the group still
	// lists it as a replica holder, but the data is gone. It rejoins the
	// file group only when it next touches the file.
	c.crash(1)
	nd := c.restart(1, newEmptyStore())

	// Reads through srv1 must succeed (forwarded, not served from the
	// phantom record).
	waitUntil(t, 15*time.Second, "read via recovered server", func() bool {
		rctx, cancel := ctxTimeout(2 * time.Second)
		defer cancel()
		data, _, err := nd.srv.Read(rctx, id, 0, 0, -1)
		return err == nil && string(data) == "real data"
	})

	// The phantom record must self-heal: srv1 either drops out of the
	// replica list or becomes a real data holder again (regeneration).
	waitUntil(t, 15*time.Second, "phantom record corrected", func() bool {
		sctx, cancel := ctxTimeout(2 * time.Second)
		defer cancel()
		info, err := a.Stat(sctx, id)
		if err != nil || len(info.Versions) != 1 {
			return false
		}
		listed := false
		for _, r := range info.Versions[0].Replicas {
			if r == c.ids[1] {
				listed = true
			}
		}
		if !listed {
			return true
		}
		sg := nd.srv.tab.get(id)
		if sg == nil {
			return false
		}
		sg.mu.Lock()
		defer sg.mu.Unlock()
		rep := sg.local[info.Versions[0].Major]
		return rep != nil && string(rep.data) == "real data"
	})
}
