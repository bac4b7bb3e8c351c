package core

import (
	"context"

	"repro/internal/derr"
	"repro/internal/simnet"
	"repro/internal/version"
	"repro/internal/wire"
)

// fail marks a direct-channel response as a typed failure. As with cast
// replies, the code — not the string — is what the requester acts on.
func (m *directMsg) fail(code derr.Code, msg string) {
	m.Code = uint16(code)
	m.Err = msg
}

// failed reports whether the response is a failure.
func (m *directMsg) failed() bool { return m.Code != 0 || m.Err != "" }

// This file implements the blast replica transfer of §3.1 ("replicas are
// generated with a file transfer protocol from an existing replica ... the
// token holder delays updates during replica generation to prevent
// inconsistency") and the direct read-forwarding path of Figure 2 / §3.4.
//
// Bulk data moves on the direct channel, outside the file group, in chunks;
// consistency is guaranteed by the opBeginTransfer/opReplicaReady casts that
// bracket the transfer and freeze updates while it runs.

// runTransfer is executed by the token holder to create a replica of major
// on target, reporting whether the replica landed. It is idempotent and
// gives up on transient failures. A new holder without a replica runs it for
// itself (writeBatchOnce, awaitOwnReplica); other servers ask the holder
// with opRequestReplica.
// Each wait wakes on the delivery that decides it (segment.await).
func (s *Server) runTransfer(ctx context.Context, sg *segment, major uint64, target simnet.NodeID) bool {
	sg.mu.Lock()
	ms := sg.majors[major]
	if ms == nil || ms.holder != s.id || ms.transferring || sg.deleted {
		sg.mu.Unlock()
		return false
	}
	if ms.replicas[target] {
		sg.mu.Unlock()
		return true
	}
	// Pick the source: ourselves if we hold data, else any reachable replica.
	var source simnet.NodeID
	if _, ok := sg.local[major]; ok {
		source = s.id
	} else {
		for r := range ms.replicas {
			if sg.view.Contains(r) {
				source = r
				break
			}
		}
	}
	inView := sg.view.Contains(target)
	grp := sg.group
	sg.mu.Unlock()
	if source == "" || source == target || grp == nil {
		return false
	}

	octx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	defer cancel()

	// A transfer target must be a file-group member to observe the transfer
	// casts; ask it to join first (the paper's servers similarly join a
	// file group before holding a replica, §3.2), and wait for the view
	// that admits it.
	if !inView {
		if _, err := s.directCall(octx, target, &directMsg{Kind: dmOpenReq, Seg: sg.id}); err != nil {
			return false
		}
		if !sg.await(octx, func() bool { return sg.view.Contains(target) }) {
			return false
		}
	}

	if _, err := s.castSelf(octx, sg, &castMsg{
		Op: opBeginTransfer, Major: major, Source: source, Target: target,
	}); err != nil {
		return false
	}

	// The target pulls the data and casts opReplicaReady (or
	// opAbortTransfer); wait for the delivery that clears the transfer
	// flag, aborting when the budget runs out so updates can resume. Our
	// own state has the transfer running, so the flag is ours to watch.
	wctx, cancel2 := context.WithTimeout(ctx, 4*s.opts.OpTimeout)
	defer cancel2()
	var landed bool
	if sg.await(wctx, func() bool {
		ms := sg.majors[major]
		landed = ms != nil && ms.replicas[target]
		return ms == nil || !ms.transferring
	}) {
		return landed
	}
	_ = grp.CastAsync(encodeCast(&castMsg{Op: opAbortTransfer, Major: major}))
	return false
}

// fetchReplica runs on the transfer target: it pulls the replica frozen by
// opBeginTransfer from source and announces the outcome to the group. The
// pull waits on the source's side for any update sequenced before the
// transfer that the source has not yet delivered, so one pull decides: a
// source that cannot reach the frozen pair refuses within a round trip and
// the transfer is aborted, which lets the file take writes again.
func (s *Server) fetchReplica(sg *segment, major uint64, source simnet.NodeID) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*s.opts.OpTimeout)
	defer cancel()
	outcome := &castMsg{Op: opAbortTransfer, Major: major}
	if pair, err := s.pull(ctx, sg, major, source); err == nil {
		outcome = &castMsg{Op: opReplicaReady, Major: major, Pair: pair}
	}
	s.castTransferOutcome(ctx, sg, outcome)
}

// castTransferOutcome casts a transfer target's opReplicaReady or
// opAbortTransfer. A target that joined the group for this transfer starts
// delivering casts before its join has stored the group handle, so a fast
// pull can finish first: the cast waits for the handle, bounded by ctx,
// because dropping it would leave the file frozen for updates until the
// holder's transfer times out.
func (s *Server) castTransferOutcome(ctx context.Context, sg *segment, m *castMsg) {
	if grp, _, err := s.awaitLive(ctx, sg); err == nil {
		_ = grp.CastAsync(encodeCast(m))
	}
}

// dropPhantomReplica corrects the group record when this server is listed
// as a replica holder of major but has no local data (a partial recovery or
// lost store). Coalesces with in-flight refreshes for the same major.
func (s *Server) dropPhantomReplica(sg *segment, major uint64) {
	release, ok := sg.claim(&sg.refreshing, major)
	if !ok {
		return
	}
	defer release()

	sg.mu.Lock()
	ms := sg.majors[major]
	_, have := sg.local[major]
	phantom := !sg.deleted && ms != nil && !have && ms.replicas[s.id]
	sg.mu.Unlock()
	if !phantom {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.OpTimeout)
	defer cancel()
	_, _ = s.castOne(ctx, sg, &castMsg{Op: opDeleteReplica, Major: major, Target: s.id})
}

// claim marks major as having an in-flight background loop in set (one of
// sg.refreshing, sg.migrating), reporting false if one is already running;
// release ends the claim. Concurrent triggers for the same major coalesce.
func (sg *segment) claim(set *map[uint64]bool, major uint64) (release func(), ok bool) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if (*set)[major] {
		return nil, false
	}
	if *set == nil {
		*set = make(map[uint64]bool)
	}
	(*set)[major] = true
	return func() {
		sg.mu.Lock()
		delete(*set, major)
		sg.mu.Unlock()
	}, true
}

// refreshReplica re-pulls the data of a replica whose pair fell behind the
// group's agreed pair during a partition or crash (§3.6 "Non-token Replica
// Crash"). The stale bytes are replaced in place by a pull from a member
// whose replica is current; the refresh itself deletes nothing, so if every
// replica went stale simultaneously the most up-to-date one survives for the
// §3.6 forced-stability path to promote. (An update that reaches a stale
// replica first drops it: see applyUpdate.) One pass over the reachable
// peers; the next read that finds the replica stale refreshes again.
// Concurrent calls for the same major coalesce.
func (s *Server) refreshReplica(sg *segment, major uint64) {
	release, ok := sg.claim(&sg.refreshing, major)
	if !ok {
		return
	}
	defer release()

	sg.mu.Lock()
	ms := sg.majors[major]
	rep := sg.local[major]
	var peers []simnet.NodeID
	if !sg.deleted && ms != nil && rep != nil && rep.pair != ms.pair {
		peers = sg.peerReplicasLocked(ms)
	}
	sg.mu.Unlock()
	for _, peer := range peers {
		if _, err := s.pull(context.Background(), sg, major, peer); err == nil {
			return
		}
	}
}

// peerReplicasLocked lists the other replica holders of ms reachable in the
// current view: the members a pull can fetch from.
func (sg *segment) peerReplicasLocked(ms *majorState) []simnet.NodeID {
	var peers []simnet.NodeID
	for r := range ms.replicas {
		if r != sg.srv.id && sg.view.Contains(r) {
			peers = append(peers, r)
		}
	}
	return peers
}

// pull fetches major's data from peer chunk by chunk and installs it as the
// local replica, returning the installed pair. It has one install rule: the
// copy installed is the one at want, the pair the group agreed on when the
// pull started (for a transfer target, the pair frozen by opBeginTransfer's
// slot, since updates are refused while the transfer runs), and only while
// want is still the group's pair. Each request carries want, and a peer that
// has not yet delivered the updates sequenced before the pull answers once
// it has. A peer that cannot reach want — it is past it, on another branch,
// or as stale as we are — or an update landing mid-pull stops the pull with
// a final error; nothing partial or torn is ever installed. A local copy is
// offered with the first chunk request, and an Unchanged answer at want
// revalidates it in place, so a rejoin after a crash ships data only for
// replicas that moved while the server was down.
//
// The pull is bounded by both the transfer budget and the caller's ctx, so
// an op-scoped deadline propagates into state transfer.
func (s *Server) pull(ctx context.Context, sg *segment, major uint64, peer simnet.NodeID) (version.Pair, error) {
	ctx, cancel := context.WithTimeout(ctx, 2*s.opts.OpTimeout)
	defer cancel()

	sg.mu.Lock()
	ms := sg.majors[major]
	if ms == nil || sg.deleted {
		sg.mu.Unlock()
		return version.Pair{}, ErrNotFound
	}
	want := ms.pair
	var have version.Pair
	prior := sg.local[major]
	if prior != nil {
		have = prior.pair
	}
	sg.mu.Unlock()

	var buf []byte
	var stable, unchanged bool
	for off := int64(0); ; {
		req := &directMsg{
			Kind: dmFetchReq, Seg: sg.id, Major: major,
			Off: off, N: int64(s.opts.TransferChunk), Want: want,
		}
		if off == 0 && prior != nil {
			req.Have, req.HaveSet = have, true
		}
		resp, err := s.directCall(ctx, peer, req)
		if err != nil {
			return version.Pair{}, err
		}
		if resp.failed() {
			return version.Pair{}, derr.New(derr.Code(resp.Code), "core: fetch: "+resp.Err)
		}
		if resp.Unchanged {
			s.stats.xferUnchanged.Add(1)
		}
		if resp.Pair != want {
			return version.Pair{}, ErrVersionConflict // an older peer answers at once
		}
		if stable, unchanged = resp.Stable, resp.Unchanged; unchanged {
			break
		}
		buf = append(buf, resp.Data...)
		s.stats.xferBytesIn.Add(uint64(len(resp.Data)))
		off += int64(len(resp.Data))
		if off >= resp.Size || len(resp.Data) == 0 {
			break
		}
	}

	sg.mu.Lock()
	defer sg.mu.Unlock()
	if ms := sg.majors[major]; ms == nil || sg.deleted || ms.pair != want {
		// The group moved on (or the version went away) during the pull.
		return version.Pair{}, ErrVersionConflict
	}
	if unchanged {
		// Our own copy is at want: revalidate it instead of re-pulling.
		cur := sg.local[major]
		if cur == nil || cur.pair != want {
			return version.Pair{}, ErrVersionConflict
		}
		buf = cur.data
	}
	// Install only what is durable: a replica whose commit failed is neither
	// kept nor announced.
	rep := &localReplica{data: buf, pair: want, stable: stable}
	s.persistReplica(sg, major, rep)
	if err := sg.commitLocked(); err != nil {
		return version.Pair{}, err
	}
	sg.local[major] = rep
	return want, nil
}

// ------------------------------------------------------- direct channel --

// directCall sends a request on the direct channel and waits for the
// response.
func (s *Server) directCall(ctx context.Context, to simnet.NodeID, req *directMsg) (*directMsg, error) {
	req.ReqID = s.reqID.Add(1)
	ch := make(chan *directMsg, 1)
	s.pending.Store(req.ReqID, ch)
	defer s.pending.Delete(req.ReqID)

	if err := s.dtr.Send(to, wire.MarshalSized(req)); err != nil {
		return nil, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return nil, derr.FromContext(ctx, "core.direct")
	case <-s.ctx.Done():
		return nil, ErrDeleted
	}
}

// directRead forwards a read to another server (Figure 2; §3.4 forwarding
// to the token holder while unstable).
func (s *Server) directRead(ctx context.Context, to simnet.NodeID, id SegID, major uint64, off, n int64) ([]byte, version.Pair, error) {
	rctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	defer cancel()
	resp, err := s.directCall(rctx, to, &directMsg{
		Kind: dmReadReq, Seg: id, Major: major, Off: off, N: n,
	})
	if err != nil {
		return nil, version.Pair{}, ErrBusy
	}
	if resp.failed() {
		return nil, version.Pair{}, ErrBusy
	}
	return resp.Data, resp.Pair, nil
}

// directLoop serves the direct channel: fetch chunks for blast transfers and
// forwarded reads.
func (s *Server) directLoop() {
	defer s.wg.Done()
	for {
		select {
		case m, ok := <-s.dtr.Recv():
			if !ok {
				return
			}
			var dm directMsg
			if err := wire.Unmarshal(m.Data, &dm); err != nil {
				continue
			}
			switch dm.Kind {
			case dmFetchResp, dmReadResp, dmOpenResp:
				if ch, ok := s.pending.Load(dm.ReqID); ok {
					select {
					case ch.(chan *directMsg) <- &dm:
					default:
					}
				}
			case dmFetchReq:
				go s.serveFetch(m.From, &dm)
			case dmReadReq:
				go s.serveRead(m.From, &dm)
			case dmOpenReq:
				go s.serveOpen(m.From, &dm)
			}
		case <-s.ctx.Done():
			return
		}
	}
}

func (s *Server) serveFetch(from simnet.NodeID, req *directMsg) {
	resp := &directMsg{Kind: dmFetchResp, ReqID: req.ReqID, Seg: req.Seg, Major: req.Major}
	sg := s.tab.get(req.Seg)
	if sg == nil {
		resp.fail(derr.CodeNotFound, "no such segment")
		s.sendDirect(from, resp)
		return
	}
	if !req.Want.IsZero() {
		// Wait for the updates that bring this replica to the fetcher's pair.
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.OpTimeout)
		sg.await(ctx, func() bool {
			rep := sg.local[req.Major]
			return rep == nil || rep.pair.Major != req.Want.Major || rep.pair.Sub >= req.Want.Sub
		})
		cancel()
	}
	sg.mu.Lock()
	rep := sg.local[req.Major]
	switch {
	case rep == nil:
		resp.fail(derr.CodeNotFound, "no replica")
	case !req.Want.IsZero() && rep.pair != req.Want:
		// Past the fetcher's pair, on another branch, or still short of it
		// after an OpTimeout: this replica never serves that pair.
		resp.fail(derr.CodeVersionConflict, "replica not at the wanted pair")
	}
	if resp.failed() {
		sg.mu.Unlock()
		s.sendDirect(from, resp)
		return
	}
	if req.HaveSet && req.Off == 0 && req.Have == rep.pair {
		// The fetcher's recovered copy is already at our pair: certify it
		// current without shipping a byte (incremental rejoin fast path).
		resp.Unchanged = true
		resp.Pair = rep.pair
		resp.Stable = rep.stable
		resp.Size = int64(len(rep.data))
		sg.mu.Unlock()
		s.stats.xferUnchanged.Add(1)
		s.sendDirect(from, resp)
		return
	}
	data, pair := sliceReplica(rep, req.Off, req.N)
	resp.Data = data
	resp.Pair = pair
	resp.Stable = rep.stable
	resp.Size = int64(len(rep.data))
	sg.mu.Unlock()
	s.stats.xferBytesOut.Add(uint64(len(data)))
	s.sendDirect(from, resp)
}

func (s *Server) serveRead(from simnet.NodeID, req *directMsg) {
	resp := &directMsg{Kind: dmReadResp, ReqID: req.ReqID, Seg: req.Seg, Major: req.Major}
	sg := s.tab.get(req.Seg)
	if sg == nil {
		resp.fail(derr.CodeNotFound, "no such segment")
		s.sendDirect(from, resp)
		return
	}
	sg.mu.Lock()
	if !sg.readyLocked() {
		// Still recovering: our pre-crash state may be obsolete (§3.6).
		sg.mu.Unlock()
		resp.fail(derr.CodeRejoining, "recovering")
		s.sendDirect(from, resp)
		return
	}
	major := req.Major
	if major == 0 {
		major = sg.currentMajorLocked()
	}
	ms := sg.majors[major]
	rep := sg.local[major]
	if ms == nil || rep == nil {
		phantom := ms != nil && ms.replicas[s.id]
		sg.mu.Unlock()
		if phantom {
			go s.dropPhantomReplica(sg, major)
		}
		resp.fail(derr.CodeNotFound, "no replica")
		s.sendDirect(from, resp)
		return
	}
	// While unstable, only a token-covered replica may serve: the holder's
	// (§3.4) or one under a shared read token (its grant slot certified it
	// current, and revocation is collected before any later write returns).
	if ms.unstable && sg.params.Stability && ms.holder != s.id && !ms.readers[s.id] {
		sg.mu.Unlock()
		resp.fail(derr.CodeBusy, "unstable")
		s.sendDirect(from, resp)
		return
	}
	// Never serve a replica that missed updates (§3.6): its pair lags the
	// group-agreed pair after a crash or partition heal.
	if rep.pair != ms.pair {
		sg.mu.Unlock()
		go s.refreshReplica(sg, major)
		resp.fail(derr.CodeBusy, "stale replica")
		s.sendDirect(from, resp)
		return
	}
	data, pair := sliceReplica(rep, req.Off, req.N)
	resp.Data = data
	resp.Pair = pair
	resp.Size = int64(len(rep.data))
	sg.mu.Unlock()
	s.sendDirect(from, resp)
}

// serveOpen joins the named file group on request, so the requester can add
// this server to the group (e.g. as a replica transfer target).
func (s *Server) serveOpen(from simnet.NodeID, req *directMsg) {
	resp := &directMsg{Kind: dmOpenResp, ReqID: req.ReqID, Seg: req.Seg}
	ctx, cancel := context.WithTimeout(context.Background(), s.opts.OpTimeout)
	defer cancel()
	if _, err := s.openSegment(ctx, req.Seg); err != nil {
		resp.fail(derr.CodeOf(err), err.Error())
	}
	s.sendDirect(from, resp)
}

func (s *Server) sendDirect(to simnet.NodeID, m *directMsg) {
	// Best-effort: on a send error the requester times out and retries.
	_ = s.dtr.Send(to, wire.MarshalSized(m))
}
