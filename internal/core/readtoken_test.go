package core

import (
	"testing"
	"time"

	"repro/internal/simnet"
)

// Tests for the shared read tokens of §4's concurrency-control spectrum:
// grant certifies a replica current and makes its reads local, any update
// revokes in its own total-order slot (and the writer collects the
// revocation acks), and a view change invalidates every token at once so a
// partitioned reader can neither serve stale data under a dead certificate
// nor block the majority side's writer.

// readTokenCluster builds an n-node cluster whose stability delay is long
// enough that a written file stays in the §3.4 unstable window for the whole
// test — the regime where read tokens matter — with one segment written once
// by srv0 (who thereby holds the write token) and replicated on the first
// `replicas` nodes.
func readTokenCluster(t *testing.T, n, replicas int) (*testCluster, SegID) {
	t.Helper()
	c := newTestClusterCore(t, n, func(o *Options) { o.StabilityDelay = time.Minute })
	ctx := ctxT(t, 20*time.Second)
	a := c.nodes[0].srv
	params := DefaultParams()
	params.MinReplicas = replicas
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("unstable base"), Truncate: true}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < replicas; i++ {
		// Retried: the first attempt can time out while the target is still
		// joining the file group.
		var aerr error
		waitUntil(t, 15*time.Second, "replica added", func() bool {
			aerr = a.AddReplica(ctx, id, 0, c.ids[i])
			return aerr == nil || !IsRetryable(aerr)
		})
		if aerr != nil {
			t.Fatal(aerr)
		}
	}
	return c, id
}

// TestReadTokenServesUnstableReadsLocally: a replica holder reading an
// unstable file pays one grant cast, after which every read is served from
// its own replica with no forwarding; an update revokes the token and the
// very next read observes the new data (the writer collected the revocation
// acks before returning, so there is no window where the reader still
// serves pre-update bytes).
func TestReadTokenServesUnstableReadsLocally(t *testing.T) {
	c, id := readTokenCluster(t, 2, 2)
	ctx := ctxT(t, 20*time.Second)
	writer, reader := c.nodes[0].srv, c.nodes[1].srv

	for i := 0; i < 3; i++ {
		data, _, err := reader.Read(ctx, id, 0, 0, -1)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if string(data) != "unstable base" {
			t.Fatalf("read %d = %q", i, data)
		}
	}
	st := reader.ReadStats()
	if st.TokenCasts != 1 {
		t.Errorf("token grant casts = %d, want 1 (first read grants, the rest ride it)", st.TokenCasts)
	}
	if st.Local < 2 {
		t.Errorf("local reads = %d, want >= 2", st.Local)
	}
	if st.Forwarded != 0 {
		t.Errorf("forwarded reads = %d, want 0 under a read token", st.Forwarded)
	}

	// The update's total-order slot revokes the reader's token; the write
	// returns only after the revocation is acknowledged, so the reader's
	// next read must observe the new content — no staleness window at all.
	if _, err := writer.Write(ctx, id, WriteReq{Data: []byte("post-revocation"), Truncate: true}); err != nil {
		t.Fatal(err)
	}
	data, _, err := reader.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "post-revocation" {
		t.Errorf("read after revoking write = %q, want %q", data, "post-revocation")
	}
}

// TestReadTokenRevocationUnderViewChange is the chaos case: a reader holding
// a read token partitions away mid-write-stream. The writer's side must keep
// making progress — the view change strips the departed reader from the
// revocation-acknowledgement set, mirroring tokenDisabledLocked's majority
// rule — and the minority reader's token dies with its view, so after the
// heal it converges on the writer's data instead of serving under a stale
// certificate.
func TestReadTokenRevocationUnderViewChange(t *testing.T) {
	c, id := readTokenCluster(t, 3, 3)
	ctx := ctxT(t, 60*time.Second)
	writer, reader, witness := c.nodes[0].srv, c.nodes[1].srv, c.nodes[2].srv

	// The reader certifies its replica and goes local.
	for i := 0; i < 2; i++ {
		if _, _, err := reader.Read(ctx, id, 0, 0, -1); err != nil {
			t.Fatalf("pre-partition read %d: %v", i, err)
		}
	}
	if st := reader.ReadStats(); st.Local < 1 || st.Forwarded != 0 {
		t.Fatalf("reader not serving locally before partition: %+v", st)
	}

	// The token-holding reader partitions away mid-stream; the writer and a
	// witness replica retain the majority (2 of 3 replicas).
	c.net.Partition([]simnet.NodeID{c.ids[0], c.ids[2]}, []simnet.NodeID{c.ids[1]})

	// The writer still makes progress: once the shrunken view installs, the
	// update's revocation set no longer contains the departed reader, so the
	// write completes instead of waiting on a reply that can never come.
	var werr error
	waitUntil(t, 20*time.Second, "majority-side write progress", func() bool {
		_, werr = writer.Write(ctx, id, WriteReq{Data: []byte("majority wrote on"), Truncate: true})
		return werr == nil
	})

	// The majority's other replica observes the new data.
	waitUntil(t, 10*time.Second, "witness reads the new data", func() bool {
		data, _, err := witness.Read(ctx, id, 0, 0, -1)
		return err == nil && string(data) == "majority wrote on"
	})

	c.net.Heal()

	// After the heal the reader's pre-partition token is long revoked (its
	// own view change killed it); it must converge on the majority's write,
	// not resurrect cached unstable-window state.
	waitUntil(t, 20*time.Second, "healed reader converges", func() bool {
		data, _, err := reader.Read(ctx, id, 0, 0, -1)
		return err == nil && string(data) == "majority wrote on"
	})
}
