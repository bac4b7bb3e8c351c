package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestWriteBatchSingleCast checks the explicit WriteBatch call: a run of
// updates applies in order with consecutive version pairs, and the whole run
// rides one cast, so it sends fewer messages than the same run issued as
// sequential Writes.
func TestWriteBatchSingleCast(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 20*time.Second)
	srv := c.nodes[0].srv

	params := DefaultParams()
	params.MinReplicas = 3
	id, err := srv.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate on every node first, so each cast costs network messages.
	if _, err := srv.Write(ctx, id, WriteReq{Data: []byte("seed")}); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 3; r++ {
		if err := srv.AddReplica(ctx, id, 0, c.ids[r]); err != nil {
			t.Fatal(err)
		}
	}
	// AddReplica returns when the holder delivers the replica's arrival;
	// count messages only once every member has delivered the transfers.
	waitUntil(t, 5*time.Second, "three replicas at every member", func() bool {
		for _, nd := range c.nodes {
			sg := nd.srv.tab.get(id)
			if sg == nil {
				return false
			}
			sg.mu.Lock()
			ms := sg.majors[sg.currentMajorLocked()]
			settled := ms != nil && len(ms.replicas) == 3 && !ms.transferring
			sg.mu.Unlock()
			if !settled {
				return false
			}
		}
		return true
	})
	reqs := []WriteReq{
		{Off: 0, Data: []byte("aaaa")},
		{Off: 4, Data: []byte("bbbb")},
		{Off: 8, Data: []byte("cccc")},
		{Off: 2, Data: []byte("XX")},
		{Off: 12, Data: []byte("dddd")},
		{Off: 16, Data: []byte("eeee")},
		{Off: 20, Data: []byte("ffff")},
		{Off: 14, Data: []byte("YY")},
	}
	c.net.ResetStats()
	pairs, err := srv.WriteBatch(ctx, id, reqs)
	if err != nil {
		t.Fatal(err)
	}
	batched := c.net.Stats().Sent
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Sub != pairs[i-1].Sub+1 {
			t.Errorf("pairs not consecutive: %v", pairs)
			break
		}
	}
	data, rpair, err := srv.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "aaXXbbbbccccddYYeeeeffff" {
		t.Errorf("data = %q", data)
	}
	if rpair != pairs[len(pairs)-1] {
		t.Errorf("read pair %v != last write pair %v", rpair, pairs[len(pairs)-1])
	}

	c.net.ResetStats()
	for _, r := range reqs {
		if _, err := srv.Write(ctx, id, r); err != nil {
			t.Fatal(err)
		}
	}
	if seq := c.net.Stats().Sent; batched*2 > seq {
		t.Errorf("batch sent %d messages, %d sequential writes %d; want at most half", batched, len(reqs), seq)
	}
}

// TestWriteBatchFromNonHolder checks that a batch from a server that does
// not hold the token acquires it via the leading piggyback op and the
// follow-up updates land on the granted major.
func TestWriteBatchFromNonHolder(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 20*time.Second)
	a, b := c.nodes[0].srv, c.nodes[1].srv

	id, err := a.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("seed-")}); err != nil {
		t.Fatal(err)
	}
	pairs, err := b.WriteBatch(ctx, id, []WriteReq{
		{Off: 5, Data: []byte("one-")},
		{Off: 9, Data: []byte("two-")},
		{Off: 13, Data: []byte("three")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("pairs = %v", pairs)
	}
	info, err := b.Stat(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if h := info.Versions[0].Holder; h != b.ID() {
		t.Errorf("holder = %v, want %v", h, b.ID())
	}
	data, _, err := a.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "seed-one-two-three" {
		t.Errorf("data = %q", data)
	}
}

// TestWriteBatchExpectConflict checks per-op independence: an Expect
// conflict mid-batch fails only that op; the earlier and later ops apply.
func TestWriteBatchExpectConflict(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 10*time.Second)
	srv := c.nodes[0].srv

	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	seed, err := srv.Write(ctx, id, WriteReq{Data: []byte("0000")})
	if err != nil {
		t.Fatal(err)
	}
	_, err = srv.WriteBatch(ctx, id, []WriteReq{
		{Off: 0, Data: []byte("A")},
		{Off: 1, Data: []byte("B"), Expect: seed}, // stale: op 0 bumped the pair
		{Off: 2, Data: []byte("C")},
	})
	if err != ErrVersionConflict {
		t.Fatalf("err = %v, want ErrVersionConflict", err)
	}
	data, _, err := srv.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "A0C0" {
		t.Errorf("data = %q, want A0C0 (op B skipped)", data)
	}
}

// TestShardedTableConcurrentOpens hammers segment creation and cross-node
// opens over many segments concurrently; with the sharded table this runs
// without a server-wide lock. Run under -race.
func TestShardedTableConcurrentOpens(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 30*time.Second)

	const perNode = 16
	ids := make([][]SegID, 3)
	var wg sync.WaitGroup
	for n := 0; n < 3; n++ {
		ids[n] = make([]SegID, perNode)
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < perNode; i++ {
				id, err := c.nodes[n].srv.Create(ctx, DefaultParams())
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := c.nodes[n].srv.Write(ctx, id, WriteReq{
					Data: fmt.Appendf(nil, "n%d-%d", n, i),
				}); err != nil {
					t.Error(err)
					return
				}
				ids[n][i] = id
			}
		}(n)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Every node opens (joins) every other node's segments concurrently.
	for n := 0; n < 3; n++ {
		for m := 0; m < 3; m++ {
			wg.Add(1)
			go func(n, m int) {
				defer wg.Done()
				for i := 0; i < perNode; i++ {
					data, _, err := c.nodes[n].srv.Read(ctx, ids[m][i], 0, 0, -1)
					if err != nil {
						t.Errorf("n%d reading seg of n%d: %v", n, m, err)
						return
					}
					if want := fmt.Sprintf("n%d-%d", m, i); string(data) != want {
						t.Errorf("read %q, want %q", data, want)
						return
					}
				}
			}(n, m)
		}
	}
	wg.Wait()
}

// TestConcurrentMultiWriter runs concurrent writers over 8 segments on a
// 4-node cell, checking that every write lands and the final contents are a
// consistent interleaving. Run under -race.
func TestConcurrentMultiWriter(t *testing.T) {
	c := newTestCluster(t, 4)
	ctx := ctxT(t, 60*time.Second)

	const nSegs = 8
	const writersPerSeg = 4
	const writesPerWriter = 10

	segs := make([]SegID, nSegs)
	for i := range segs {
		params := DefaultParams()
		params.MinReplicas = 2
		id, err := c.nodes[i%4].srv.Create(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		segs[i] = id
	}

	// Each writer appends its own fixed-size records at disjoint offsets so
	// success is verifiable regardless of interleaving.
	const rec = 8
	var wg sync.WaitGroup
	for si, id := range segs {
		for w := 0; w < writersPerSeg; w++ {
			wg.Add(1)
			go func(si int, id SegID, w int) {
				defer wg.Done()
				srv := c.nodes[w%4].srv
				for k := 0; k < writesPerWriter; k++ {
					off := int64((w*writesPerWriter + k) * rec)
					payload := fmt.Appendf(nil, "w%dk%03d|", w, k)
					if _, err := srv.Write(ctx, id, WriteReq{Off: off, Data: payload[:rec]}); err != nil {
						t.Errorf("seg %d writer %d: %v", si, w, err)
						return
					}
				}
			}(si, id, w)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for si, id := range segs {
		data, _, err := c.nodes[0].srv.Read(ctx, id, 0, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != writersPerSeg*writesPerWriter*rec {
			t.Fatalf("seg %d: len=%d, want %d", si, len(data), writersPerSeg*writesPerWriter*rec)
		}
		for w := 0; w < writersPerSeg; w++ {
			for k := 0; k < writesPerWriter; k++ {
				off := (w*writesPerWriter + k) * rec
				want := fmt.Appendf(nil, "w%dk%03d|", w, k)[:rec]
				if !bytes.Equal(data[off:off+rec], want) {
					t.Fatalf("seg %d off %d = %q, want %q", si, off, data[off:off+rec], want)
				}
			}
		}
	}
}

// TestBatchSurvivesViewChange is the chaos case: concurrent writers stream
// updates while a replica-holding member crashes mid-stream. Every write
// must either complete or fail retryably-and-then-complete; the survivors'
// replicas must converge on the full record set.
func TestBatchSurvivesViewChange(t *testing.T) {
	c := newTestCluster(t, 4)
	ctx := ctxT(t, 60*time.Second)
	a := c.nodes[0].srv

	params := DefaultParams()
	params.MinReplicas = 3
	id, err := a.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write(ctx, id, WriteReq{Data: []byte("seed....")}); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 3; r++ {
		if err := a.AddReplica(ctx, id, 0, c.ids[r]); err != nil {
			t.Fatal(err)
		}
	}

	const writers = 4
	const writesPerWriter = 25
	const rec = 8
	var wg sync.WaitGroup
	var crashOnce sync.Once
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < writesPerWriter; k++ {
				if w == 0 && k == writesPerWriter/2 {
					// Mid-stream: crash a non-writing replica holder, forcing
					// a view change under in-flight batches.
					crashOnce.Do(func() { c.crash(2) })
				}
				off := int64(8 + (w*writesPerWriter+k)*rec)
				payload := fmt.Appendf(nil, "W%dK%03d|", w, k)
				if _, err := a.Write(ctx, id, WriteReq{Off: off, Data: payload[:rec]}); err != nil {
					t.Errorf("writer %d op %d: %v", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	data, _, err := a.Read(ctx, id, 0, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < writesPerWriter; k++ {
			off := 8 + (w*writesPerWriter+k)*rec
			want := fmt.Appendf(nil, "W%dK%03d|", w, k)[:rec]
			if !bytes.Equal(data[off:off+rec], want) {
				t.Fatalf("off %d = %q, want %q", off, data[off:off+rec], want)
			}
		}
	}
}
