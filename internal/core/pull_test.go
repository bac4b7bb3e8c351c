package core

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/version"
	"repro/internal/wire"
)

// TestTransferInstallsOnlyFrozenPair covers a transfer source that lags in
// delivery: when the target's fetch arrives, the source still holds the copy
// from before the last update sequenced ahead of opBeginTransfer. The target
// must never install that copy; its pull waits on the source until the
// source catches up and then installs the frozen pair's bytes and is listed
// as a replica.
func TestTransferInstallsOnlyFrozenPair(t *testing.T) {
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 20*time.Second)
	srv0, srv2 := c.nodes[0].srv, c.nodes[2].srv
	id, err := srv0.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("old bytes")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, srv0, id)
	major := uint64(version.InitialMajor)
	sg0 := srv0.tab.get(id)
	sg0.mu.Lock()
	prev := *sg0.local[major]
	prev.data = append([]byte(nil), prev.data...)
	sg0.mu.Unlock()
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("new bytes")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, srv0, id)
	if _, err := srv2.Stat(ctx, id); err != nil { // srv2 joins the group
		t.Fatal(err)
	}
	sg2 := srv2.tab.get(id)

	// The source has not yet delivered the last update.
	sg0.mu.Lock()
	cur := sg0.local[major]
	sg0.local[major] = &prev
	sg0.mu.Unlock()
	if _, err := srv0.castOne(ctx, sg0, &castMsg{
		Op: opBeginTransfer, Major: major, Source: srv0.ID(), Target: srv2.ID(),
	}); err != nil {
		t.Fatal(err)
	}

	// checkTarget fails if the target holds anything but the group's bytes.
	checkTarget := func() {
		t.Helper()
		sg2.mu.Lock()
		defer sg2.mu.Unlock()
		rep, ms := sg2.local[major], sg2.majors[major]
		if rep != nil && (rep.pair != ms.pair || !bytes.Equal(rep.data, []byte("new bytes"))) {
			t.Fatalf("target installed %q at %v; group pair %v", rep.data, rep.pair, ms.pair)
		}
	}
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
		checkTarget()
	}

	// The delivery arrives.
	sg0.mu.Lock()
	sg0.local[major] = cur
	sg0.wakeLocked()
	sg0.mu.Unlock()
	waitUntil(t, 5*time.Second, "srv2 listed as a replica", func() bool {
		checkTarget()
		sg0.mu.Lock()
		defer sg0.mu.Unlock()
		ms := sg0.majors[major]
		return !ms.transferring && ms.replicas[srv2.ID()]
	})
	checkTarget()
	sg2.mu.Lock()
	defer sg2.mu.Unlock()
	if sg2.local[major] == nil {
		t.Fatal("target listed as a replica without data")
	}
}

// TestUpdateDropsStaleReplica drives the state machine directly: an update
// delivered to a member whose local replica lags the group's pre-update pair
// must drop that replica and its data record in the same commit, not apply
// the delta to the stale base and relabel it current.
func TestUpdateDropsStaleReplica(t *testing.T) {
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 10*time.Second)
	srv := c.nodes[0].srv
	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"first", "second"} {
		if _, err := srv.Write(ctx, id, WriteReq{Data: []byte(d)}); err != nil {
			t.Fatal(err)
		}
	}
	waitStable(t, srv, id)
	major := uint64(version.InitialMajor)
	sg := srv.tab.get(id)
	sg.mu.Lock()
	ms := sg.majors[major]
	stale := ms.pair
	stale.Sub--
	sg.local[major].pair = stale // as if the replica missed the last update
	sg.mu.Unlock()

	before := srv.TransferStats().StaleDropped
	reply := (&segApp{sg: sg}).Deliver(srv.ID(), encodeCast(&castMsg{
		Op: opUpdate, Major: major, Off: 0, Data: []byte("third"),
	}))
	var r castReply
	if err := wire.Unmarshal(reply, &r); err != nil {
		t.Fatal(err)
	}
	if !r.OK || r.IsReplica {
		t.Fatalf("update reply OK=%v IsReplica=%v (%s), want an accepted update from a non-replica", r.OK, r.IsReplica, r.Err)
	}
	sg.mu.Lock()
	rep := sg.local[major]
	sg.mu.Unlock()
	if rep != nil {
		t.Fatalf("stale replica relabelled: %q at %v", rep.data, rep.pair)
	}
	if _, ok, err := c.nodes[0].st.Get(bucketData, dataKey(id, major)); err != nil || ok {
		t.Fatalf("stale replica's data record still stored (ok=%v, err=%v)", ok, err)
	}
	if got := srv.TransferStats().StaleDropped - before; got != 1 {
		t.Fatalf("StaleDropped rose by %d, want 1", got)
	}
}

// TestRunTransferStopsOnClose: a transfer whose target accepts the open
// request but never joins the file group must not keep its goroutine alive
// past Close for the rest of the join budget.
func TestRunTransferStopsOnClose(t *testing.T) {
	const bound = 100 * time.Millisecond
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 10*time.Second)
	srv := c.nodes[0].srv
	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	// A bare endpoint that answers dmOpenReq but never joins.
	bare := simnet.NewDemux(c.net.Attach("bare")).Channel(1)
	t.Cleanup(func() { _ = bare.Close() })
	opened := make(chan struct{}, 1)
	go func() {
		for m := range bare.Recv() {
			var dm directMsg
			if wire.Unmarshal(m.Data, &dm) != nil || dm.Kind != dmOpenReq {
				continue
			}
			_ = bare.Send(m.From, wire.MarshalSized(&directMsg{Kind: dmOpenResp, ReqID: dm.ReqID, Seg: dm.Seg}))
			select {
			case opened <- struct{}{}:
			default:
			}
		}
	}()

	returned := make(chan struct{})
	go func() {
		srv.runTransfer(context.Background(), srv.tab.get(id), version.InitialMajor, "bare")
		close(returned)
	}()
	select {
	case <-opened:
	case <-time.After(5 * time.Second):
		t.Fatal("runTransfer never sent its open request")
	}
	time.Sleep(60 * time.Millisecond) // now in the join wait
	srv.Close()
	closed := time.Now()
	select {
	case <-returned:
	case <-time.After(c.copts.OpTimeout):
		t.Fatal("runTransfer still running a whole OpTimeout after Close")
	}
	if d := time.Since(closed); d > bound {
		t.Fatalf("runTransfer returned %v after Close, want within %v", d, bound)
	}
}

// TestNewHolderDoesNotWaitOutDeadline covers a replica step that finds the
// holder's one transfer slot taken. A new token holder without a replica
// must learn of the refusal at once and get its replica as soon as the
// running transfer ends, and an AddReplica issued meanwhile must return
// once its replica lands — neither may wait out a 2×OpTimeout deadline for
// a request that was dropped.
func TestNewHolderDoesNotWaitOutDeadline(t *testing.T) {
	const bound = 200 * time.Millisecond
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 30*time.Second)
	srv0, srv2 := c.nodes[0].srv, c.nodes[2].srv
	major := uint64(version.InitialMajor)

	// newFile makes a file held by srv0 with replicas on srv0 and srv1, which
	// srv2 has joined without a replica.
	newFile := func(t *testing.T) (*segment, *segment) {
		t.Helper()
		params := DefaultParams()
		params.MinReplicas = 2
		id, err := srv0.Create(ctx, params)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
			t.Fatal(err)
		}
		sg0 := srv0.tab.get(id)
		waitUntil(t, 5*time.Second, "replicas on srv0 and srv1", func() bool {
			sg0.mu.Lock()
			defer sg0.mu.Unlock()
			ms := sg0.majors[major]
			return !ms.transferring && ms.replicas[srv0.ID()] && ms.replicas[c.nodes[1].srv.ID()]
		})
		if _, err := srv2.Stat(ctx, id); err != nil {
			t.Fatal(err)
		}
		return sg0, srv2.tab.get(id)
	}
	// holdTransfer opens a transfer, coordinated by from, to a target that
	// never pulls; the returned func aborts it and reports when.
	holdTransfer := func(t *testing.T, from *Server, sg *segment) (abort func() time.Time) {
		t.Helper()
		if _, err := from.castOne(ctx, sg, &castMsg{
			Op: opBeginTransfer, Major: major, Source: srv0.ID(), Target: "nobody",
		}); err != nil {
			t.Fatal(err)
		}
		return func() time.Time {
			t.Helper()
			if _, err := from.castAll(ctx, sg, &castMsg{Op: opAbortTransfer, Major: major}); err != nil {
				t.Fatal(err)
			}
			return time.Now()
		}
	}
	// finish waits for errc and fails unless it yields nil within bound of
	// the abort.
	finish := func(t *testing.T, what string, errc <-chan error, aborted time.Time) {
		t.Helper()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if d := time.Since(aborted); d > bound {
				t.Fatalf("%s returned %v after the transfer ended, want within %v", what, d, bound)
			}
		case <-time.After(4 * c.copts.OpTimeout):
			t.Fatalf("%s still blocked %v after the transfer ended", what, 4*c.copts.OpTimeout)
		}
	}

	t.Run("new holder", func(t *testing.T) {
		_, sg2 := newFile(t)
		// srv2 takes the token with a write's token op (an empty update),
		// and finds its transfer slot taken before its replica step runs.
		if _, err := srv2.castAll(ctx, sg2, &castMsg{Op: opTokenUpdate, Major: major}); err != nil {
			t.Fatal(err)
		}
		abort := holdTransfer(t, srv2, sg2)
		errc := make(chan error, 1)
		go func() {
			errc <- srv2.retry(ctx, func() error {
				if srv2.runTransfer(ctx, sg2, major, srv2.ID()) {
					return nil
				}
				return ErrBusy
			})
		}()
		time.Sleep(bound / 2)
		finish(t, "replica step", errc, abort())
		sg2.mu.Lock()
		defer sg2.mu.Unlock()
		if rep := sg2.local[major]; rep == nil || string(rep.data) != "payload" {
			t.Fatalf("new holder's replica = %+v, want the file's data", rep)
		}
	})

	t.Run("AddReplica", func(t *testing.T) {
		sg0, sg2 := newFile(t)
		abort := holdTransfer(t, srv0, sg0)
		errc := make(chan error, 1)
		go func() { errc <- srv0.AddReplica(ctx, sg0.id, major, srv2.ID()) }()
		time.Sleep(bound / 2)
		finish(t, "AddReplica", errc, abort())
		sg2.mu.Lock()
		defer sg2.mu.Unlock()
		if sg2.local[major] == nil {
			t.Fatal("AddReplica returned before the target held the replica")
		}
	})
}

// TestHolderReadWaitsForOwnReplica covers a new token holder that reads its
// file while the pull of its own replica is still running. The holder's
// replica is the primary while the file is unstable (§3.4), so the read
// must wait for it and return the written bytes once the pull lands. It
// must not fail over while it waits: a §3.6 forced stability or an aborted
// transfer would be a commit at every member, so no member commits anything
// until the pull resumes.
func TestHolderReadWaitsForOwnReplica(t *testing.T) {
	copts := testCoreOpts()
	copts.StabilityDelay = time.Minute // no return to stability in the counts
	c, logs := newLogCluster(t, 3, copts)
	ctx := ctxT(t, 20*time.Second)
	srv0, srv2 := c.nodes[0].srv, c.nodes[2].srv
	major := uint64(version.InitialMajor)
	id, err := srv0.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.nodes[1:] { // srv1 and srv2 join without a replica
		if _, err := nd.srv.Stat(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	sg0, sg2 := srv0.tab.get(id), srv2.tab.get(id)

	// Pause the pull: srv0, the only replica and so the source, answers
	// fetches from a stand-in whose copy is behind the transfer's pair, as
	// if srv0 had not yet delivered the write, so the fetch waits there
	// until resume delivers it.
	standIn := newSegment(srv0, id)
	standIn.local[major] = &localReplica{pair: version.Initial()}
	srv0.tab.put(id, standIn)
	resume := func() {
		sg0.mu.Lock()
		cur := *sg0.local[major]
		sg0.mu.Unlock()
		standIn.mu.Lock()
		standIn.local[major] = &cur
		standIn.wakeLocked()
		standIn.mu.Unlock()
		srv0.tab.put(id, sg0)
	}
	defer resume()

	wrote := make(chan error, 1)
	go func() {
		_, err := srv2.WriteBatch(ctx, id, []WriteReq{
			{Off: 0, Data: []byte("P")},
			{Off: 7, Data: []byte("!")},
		})
		wrote <- err
	}()
	pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if !sg2.await(pctx, func() bool {
		ms := sg2.majors[major]
		return ms.holder == srv2.ID() && ms.transferring
	}) {
		t.Fatal("srv2 never took the token and began its own transfer")
	}
	// Every member has delivered the transfer's begin before it commits.
	waitUntil(t, 5*time.Second, "opBeginTransfer delivered everywhere", func() bool {
		for _, nd := range c.nodes {
			sg := nd.srv.tab.get(id)
			if nd.srv == srv0 {
				sg = sg0
			}
			sg.mu.Lock()
			running := sg.majors[major].transferring
			sg.mu.Unlock()
			if !running {
				return false
			}
		}
		return true
	})
	before := syncs(logs)

	type result struct {
		data []byte
		err  error
	}
	read := make(chan result, 1)
	go func() {
		data, _, err := srv2.Read(ctx, id, 0, 0, -1)
		read <- result{data, err}
	}()
	select {
	case r := <-read:
		t.Fatalf("read returned %q, %v while the holder's replica was still being pulled", r.data, r.err)
	case <-time.After(100 * time.Millisecond):
	}
	for i, n := range syncs(logs) {
		if got := n - before[i]; got != 0 {
			t.Errorf("srv%d committed %d times while the holder's read waited, want 0", i, got)
		}
	}
	resume()
	select {
	case r := <-read:
		if r.err != nil || string(r.data) != "Payload!" {
			t.Fatalf("holder's read = %q, %v; want %q", r.data, r.err, "Payload!")
		}
	case <-time.After(2 * c.copts.OpTimeout):
		t.Fatal("holder's read still blocked after its replica's pull resumed")
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write: %v", err)
	}
}

// TestViewChangeEndsOrphanedTransfer covers a holder that crashes right
// after its opBeginTransfer is delivered. Nothing else will end that
// transfer by cast, and the version refuses token requests while a transfer
// runs, so the view change that removes the holder must end it: a write on
// the majority side then proceeds within a few heartbeats instead of
// retrying ErrBusy until its deadline. The transfer's target is blanked at
// every member, as a snapshot that predates the field restores it; a view
// change that removes neither the holder nor a known target, here a
// member's crash, must leave the transfer running.
func TestViewChangeEndsOrphanedTransfer(t *testing.T) {
	c := newTestCluster(t, 5)
	ctx := ctxT(t, 20*time.Second)
	srv0, srv1 := c.nodes[0].srv, c.nodes[1].srv
	major := uint64(version.InitialMajor)
	params := DefaultParams()
	params.MinReplicas = 3
	id, err := srv0.Create(ctx, params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	sg0 := srv0.tab.get(id)
	waitUntil(t, 5*time.Second, "three replicas", func() bool {
		sg0.mu.Lock()
		defer sg0.mu.Unlock()
		ms := sg0.majors[major]
		return !ms.transferring && len(ms.replicas) == 3 && !ms.replicas[c.ids[3]] && !ms.replicas[c.ids[4]]
	})
	waitStable(t, srv0, id)
	for _, nd := range c.nodes[3:] { // srv3 and srv4 join without a replica
		if _, err := nd.srv.Stat(ctx, id); err != nil {
			t.Fatal(err)
		}
	}

	// srv0 begins a transfer to srv3, a member, from a source that never
	// answers, so srv3 keeps pulling.
	if _, err := srv0.castAll(ctx, sg0, &castMsg{
		Op: opBeginTransfer, Major: major, Source: "ghost", Target: c.ids[3],
	}); err != nil {
		t.Fatal(err)
	}
	members := []*segment{sg0, srv1.tab.get(id), c.nodes[2].srv.tab.get(id)}
	for _, sg := range members {
		sg.mu.Lock()
		sg.majors[major].transferTo = ""
		sg.mu.Unlock()
	}
	c.crash(4)
	waitUntil(t, 5*time.Second, "srv4 out of every view", func() bool {
		for _, sg := range members {
			sg.mu.Lock()
			in := sg.view.Contains(c.ids[4])
			sg.mu.Unlock()
			if in {
				return false
			}
		}
		return true
	})
	for i, sg := range members {
		sg.mu.Lock()
		running := sg.majors[major].transferring
		sg.mu.Unlock()
		if !running {
			t.Fatalf("srv%d: a view change that kept the holder ended its transfer", i)
		}
	}

	// Then the holder crashes.
	c.crash(0)
	start := time.Now()
	wctx, cancel := context.WithTimeout(ctx, 50*c.iopts.HeartbeatInterval)
	defer cancel()
	if _, err := srv1.Write(wctx, id, WriteReq{Data: []byte("after")}); err != nil {
		t.Fatalf("survivor's write after %v: %v", time.Since(start), err)
	}
	data, _, err := srv1.Read(ctx, id, 0, 0, -1)
	if err != nil || string(data) != "afterad" {
		t.Fatalf("read = %q, %v; want %q", data, err, "afterad")
	}
}

// TestWriteResumesWhenTransferEnds covers a write refused because a
// transfer freezes its file (§3.1): it goes out again as soon as the
// transfer ends, in one more attempt, not on a retry backoff.
func TestWriteResumesWhenTransferEnds(t *testing.T) {
	c := newTestCluster(t, 2)
	ctx := ctxT(t, 20*time.Second)
	srv0, srv1 := c.nodes[0].srv, c.nodes[1].srv
	major := uint64(version.InitialMajor)
	id, err := srv0.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Stat(ctx, id); err != nil { // srv1 joins without a replica
		t.Fatal(err)
	}
	sg0 := srv0.tab.get(id)
	// A transfer to srv1 from a source that never answers.
	if _, err := srv0.castAll(ctx, sg0, &castMsg{
		Op: opBeginTransfer, Major: major, Source: "ghost", Target: srv1.ID(),
	}); err != nil {
		t.Fatal(err)
	}
	const hold = 100 * time.Millisecond
	go func() {
		time.Sleep(hold)
		_, _ = srv0.castAll(ctx, sg0, &castMsg{Op: opAbortTransfer, Major: major})
	}()
	start := time.Now()
	attempts := 0
	if err := srv0.retry(ctx, func() error {
		attempts++
		_, errs, err := srv0.writeBatchAttempt(ctx, id, []WriteReq{{Data: []byte("after")}})
		if err == nil {
			err = errs[0]
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < hold || took > hold+time.Second {
		t.Fatalf("write took %v; want it to follow the transfer's end at %v", took, hold)
	}
	if attempts > 2 {
		t.Fatalf("write made %d attempts; want the refused one and one after the transfer's end", attempts)
	}
}

// TestTransferFromDisagreeingSourceEndsAtOnce covers a transfer whose source
// holds the version at a pair past the one the transfer froze, as when two
// members disagree on a version's pair. The source can never serve the
// frozen pair, so it refuses the target's first fetch: the transfer ends and
// the file takes writes again within a few round trips, not after the
// transfer's 4×OpTimeout budget.
func TestTransferFromDisagreeingSourceEndsAtOnce(t *testing.T) {
	const bound = 500 * time.Millisecond
	c := newTestCluster(t, 3)
	ctx := ctxT(t, 30*time.Second)
	srv0, srv2 := c.nodes[0].srv, c.nodes[2].srv
	major := uint64(version.InitialMajor)
	id, err := srv0.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, srv0, id)
	if _, err := srv2.Stat(ctx, id); err != nil { // srv2 joins without a replica
		t.Fatal(err)
	}
	sg0 := srv0.tab.get(id)

	// srv0, the holder and source, answers fetches from a stand-in whose
	// copy is far past the group's pair.
	standIn := newSegment(srv0, id)
	standIn.local[major] = &localReplica{pair: version.Pair{Major: major, Sub: 1 << 40}}
	srv0.tab.put(id, standIn)
	start := time.Now()
	landed := srv0.runTransfer(ctx, sg0, major, srv2.ID())
	srv0.tab.put(id, sg0)
	if landed {
		t.Fatal("transfer landed from a source past the frozen pair")
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("P")}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > bound {
		t.Fatalf("the file took a write again %v after the transfer began, want within %v", took, bound)
	}
	sg2 := srv2.tab.get(id)
	sg2.mu.Lock()
	defer sg2.mu.Unlock()
	if rep := sg2.local[major]; rep != nil {
		t.Fatalf("target installed %q at %v from a disagreeing source", rep.data, rep.pair)
	}
}

// TestLaggingSourceServesEachChunkOnce covers a transfer source that has not
// yet delivered the last update sequenced before opBeginTransfer. The
// target's first fetch waits on the source for that delivery, so the pull
// lands with one fetch per chunk: the source ships the file's bytes exactly
// once and never the stale copy.
func TestLaggingSourceServesEachChunkOnce(t *testing.T) {
	const size = 16
	c := newTestClusterCore(t, 3, func(o *Options) { o.TransferChunk = size / 4 })
	ctx := ctxT(t, 20*time.Second)
	srv0, srv2 := c.nodes[0].srv, c.nodes[2].srv
	major := uint64(version.InitialMajor)
	id, err := srv0.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Write(ctx, id, WriteReq{Data: []byte("0123456789abcdef")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, srv0, id)
	sg0 := srv0.tab.get(id)
	sg0.mu.Lock()
	prev := *sg0.local[major]
	prev.data = append([]byte(nil), prev.data...)
	sg0.mu.Unlock()
	want := []byte("ABCDEFGHIJKLMNOP")
	if _, err := srv0.Write(ctx, id, WriteReq{Data: want}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, srv0, id)
	if _, err := srv2.Stat(ctx, id); err != nil { // srv2 joins the group
		t.Fatal(err)
	}
	sg2 := srv2.tab.get(id)

	// The source has not yet delivered the last update.
	sg0.mu.Lock()
	cur := sg0.local[major]
	sg0.local[major] = &prev
	sg0.mu.Unlock()
	out, in := srv0.TransferStats().BytesOut, srv2.TransferStats().BytesIn
	if _, err := srv0.castOne(ctx, sg0, &castMsg{
		Op: opBeginTransfer, Major: major, Source: srv0.ID(), Target: srv2.ID(),
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// The delivery arrives.
	sg0.mu.Lock()
	sg0.local[major] = cur
	sg0.wakeLocked()
	sg0.mu.Unlock()
	waitUntil(t, 5*time.Second, "srv2 listed as a replica", func() bool {
		sg0.mu.Lock()
		defer sg0.mu.Unlock()
		ms := sg0.majors[major]
		return !ms.transferring && ms.replicas[srv2.ID()]
	})
	sg2.mu.Lock()
	rep := sg2.local[major]
	sg2.mu.Unlock()
	if rep == nil || !bytes.Equal(rep.data, want) {
		t.Fatalf("target holds %+v, want %q", rep, want)
	}
	if got := srv0.TransferStats().BytesOut - out; got != size {
		t.Errorf("source shipped %d bytes for a %d-byte file in %d-byte chunks, want each chunk once", got, size, size/4)
	}
	if got := srv2.TransferStats().BytesIn - in; got != size {
		t.Errorf("target pulled %d bytes for a %d-byte file, want each chunk once", got, size)
	}
}

// TestOpOnDissolvedGroupWaitsForRejoin covers ops issued while their file
// group is dissolved (§3.6: the losing side of a partition heal rejoins the
// winner). Each waits for the view that ends the dissolve and then re-runs
// within a few ms of it, in at most two attempts, instead of making one
// attempt per retry backoff while the group is away.
func TestOpOnDissolvedGroupWaitsForRejoin(t *testing.T) {
	const (
		away  = 100 * time.Millisecond
		bound = 50 * time.Millisecond
	)
	c := newTestCluster(t, 1)
	ctx := ctxT(t, 20*time.Second)
	srv := c.nodes[0].srv
	id, err := srv.Create(ctx, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write(ctx, id, WriteReq{Data: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	waitStable(t, srv, id)
	sg := srv.tab.get(id)
	sg.mu.Lock()
	view := sg.view
	sg.mu.Unlock()

	ops := map[string]func() error{
		"write": func() error {
			_, errs, err := srv.writeBatchAttempt(ctx, id, []WriteReq{{Data: []byte("P")}})
			if err == nil {
				err = errs[0]
			}
			return err
		},
		"read": func() error {
			_, _, err := srv.readOnce(ctx, id, 0, 0, -1)
			return err
		},
		"cast": func() error {
			_, err := srv.castOne(ctx, sg, &castMsg{Op: opSetParams, Params: DefaultParams()})
			return err
		},
	}
	app := &segApp{sg: sg}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			app.ViewChange(isis.View{}, isis.ReasonDissolve)
			type result struct {
				attempts int
				err      error
				at       time.Time
			}
			done := make(chan result, 1)
			go func() {
				attempts := 0
				err := srv.retry(ctx, func() error { attempts++; return op() })
				done <- result{attempts, err, time.Now()}
			}()
			time.Sleep(away)
			rejoined := time.Now()
			app.ViewChange(view, isis.ReasonJoin)
			r := <-done
			if r.err != nil {
				t.Fatal(r.err)
			}
			if d := r.at.Sub(rejoined); d > bound {
				t.Errorf("op finished %v after the view that ended the dissolve, want within %v", d, bound)
			}
			if r.attempts > 2 {
				t.Errorf("op made %d attempts across a %v dissolve, want at most 2", r.attempts, away)
			}
		})
	}
}
