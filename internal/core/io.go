package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/derr"
	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/version"
)

// ReadStats counts how reads were served; the read-token tests and
// benchmarks read them. All counters are cumulative since server start.
type ReadStats struct {
	Local      uint64 // served from this server's replica, zero communication
	Forwarded  uint64 // forwarded to another server (Figure 2 / §3.4)
	TokenCasts uint64 // opReadToken grant casts issued
}

// TransferStats counts replica-data movement on the direct channel; the A8
// rejoin benchmark reads them to separate state-transfer volume from group
// metadata reconcile traffic. All counters are cumulative since server start.
type TransferStats struct {
	BytesOut     uint64 // replica data bytes served to fetchers
	BytesIn      uint64 // replica data bytes pulled from peers
	Unchanged    uint64 // fetches answered/received as Unchanged (no data shipped)
	StaleDropped uint64 // local replicas an update found behind the group's pair, dropped
}

// readPlan is an immutable snapshot of everything the read path needs to
// decide how to serve one read. It is taken in a single critical section on
// the segment lock (readPlanLocked); every forwarding decision afterwards
// works off the snapshot, so the lock is never held across network calls and
// a read never observes two different metadata states mid-decision.
type readPlan struct {
	err    error // terminal outcome decided under the lock, if any
	served bool  // fast path hit: data/pair below are the result
	data   []byte
	pair   version.Pair

	major     uint64
	holder    simnet.NodeID
	holderIn  bool
	unstable  bool
	stale     bool // local replica lags the group-agreed pair (§3.6)
	phantom   bool // group lists us as a replica but the data is gone
	migrate   bool
	wantToken bool            // a read-token grant would make this read local
	targets   []simnet.NodeID // forwarding candidates, holder first
}

// readPlanLocked builds the plan for one read under sg.mu.
func (s *Server) readPlanLocked(sg *segment, major uint64, off, n int64) readPlan {
	if sg.deleted {
		return readPlan{err: ErrNotFound}
	}
	if major == 0 {
		major = sg.currentMajorLocked()
	}
	ms := sg.majors[major]
	if ms == nil {
		return readPlan{err: ErrNotFound}
	}
	params := sg.params
	rep := sg.local[major]
	p := readPlan{
		major:    major,
		holder:   ms.holder,
		holderIn: ms.holder != "" && sg.view.Contains(ms.holder),
		unstable: ms.unstable && params.Stability,
		// A replica whose pair lags the group-agreed pair missed updates
		// while this server was crashed or partitioned (§3.6 "Non-token
		// Replica Crash"). It must never serve reads; refresh it in the
		// background and forward like a server with no replica.
		stale: rep != nil && rep.pair != ms.pair,
		// The inverse lie: the group record lists us as a replica holder but
		// the data is gone (partial recovery). Correct the record so readers
		// and forks stop routing to phantom data.
		phantom: rep == nil && ms.replicas[s.id],
		// Migration and §7 hot-read self-replication trigger in the
		// background before forwarding (§3.1 method 4).
		migrate: rep == nil && (params.Migration || params.HotRead),
	}

	// Fast path: serve from the local replica. While the file is unstable,
	// a replica may serve only if it is the token holder's (§3.4: "after
	// stability notification, all file reads and inquiries are forwarded to
	// the token holder") — or if it holds a shared read token, whose grant
	// slot certified the replica current and whose revocation any later
	// update must collect before returning (applyReadToken/applyUpdate).
	covered := ms.holder == s.id || ms.readers[s.id]
	if rep != nil && !p.stale && (!p.unstable || covered) {
		p.served = true
		p.data, p.pair = sliceReplica(rep, off, n)
		return p
	}

	// An unstable read blocked only by the missing token is worth one grant
	// cast: every read after it is local until the next write revokes.
	p.wantToken = p.unstable && !covered && !sg.readDenied &&
		rep != nil && !p.stale

	// Stable forwarding candidates: any available replica, preferring the
	// holder (Figure 2's server-to-server forwarding).
	if p.holderIn {
		p.targets = append(p.targets, ms.holder)
	}
	for _, r := range ms.replicaList() {
		if r != ms.holder && r != s.id && sg.view.Contains(r) {
			p.targets = append(p.targets, r)
		}
	}
	return p
}

// acquireReadToken casts an opReadToken grant request and waits until every
// available member has applied it — including this server, whose state
// machine records the grant the fast path checks. Returns true on grant.
func (s *Server) acquireReadToken(ctx context.Context, sg *segment, major uint64) bool {
	s.stats.tokenCasts.Add(1)
	r, err := s.castAll(ctx, sg, &castMsg{Op: opReadToken, Major: major})
	if err != nil || r == nil {
		return false
	}
	if r.Outcome != tokGranted {
		// Minority side or not a replica: stop paying a doomed cast per read
		// until the view changes or an update lands (segment.readDenied).
		sg.mu.Lock()
		sg.readDenied = true
		sg.mu.Unlock()
		return false
	}
	return true
}

// readOnce attempts one read. It may return ErrBusy for transient
// conditions, in which case Read retries.
func (s *Server) readOnce(ctx context.Context, id SegID, major uint64, off, n int64) ([]byte, version.Pair, error) {
	sg, err := s.openSegment(ctx, id)
	if err != nil {
		return nil, version.Pair{}, err
	}
	// A recovering segment must not serve its possibly-obsolete pre-crash
	// state (§3.6 "Non-token Replica Crash").
	grp, _, err := s.awaitLive(ctx, sg)
	if err != nil {
		return nil, version.Pair{}, err
	}
	plan := func() readPlan {
		sg.mu.Lock()
		defer sg.mu.Unlock()
		return s.readPlanLocked(sg, major, off, n)
	}
	p := plan()

	// A read-token grant converts this read — and every one after it until
	// the next write — from a forwarded round trip into a local replica hit.
	if p.wantToken && s.acquireReadToken(ctx, sg, p.major) {
		p = plan()
	}
	// The holder's own replica is the primary while the file is unstable
	// (§3.4): if it is not here yet, wait for it.
	if p.err == nil && !p.served && p.unstable && p.holder == s.id {
		s.awaitOwnReplica(ctx, sg, p.major)
		p = plan()
	}
	if p.err != nil {
		return nil, version.Pair{}, p.err
	}
	if p.served {
		s.stats.readsLocal.Add(1)
		return p.data, p.pair, nil
	}

	if p.stale {
		go s.refreshReplica(sg, p.major)
	}
	if p.phantom {
		go s.dropPhantomReplica(sg, p.major)
	}
	if p.migrate {
		go s.requestMigration(sg, p.major)
	}

	if p.unstable {
		if !p.holderIn {
			return s.readAfterHolderFailure(ctx, sg, grp, p.major, off, n)
		}
		if p.holder != s.id {
			data, pair, err := s.directRead(ctx, p.holder, id, p.major, off, n)
			if err == nil {
				s.stats.readsForwarded.Add(1)
				return data, pair, nil
			}
		}
		// A reachable holder is never failed over: its replica may still be
		// landing. Read retries until it serves or the file is stable.
		return nil, version.Pair{}, ErrBusy
	}

	for _, t := range p.targets {
		data, pair, err := s.directRead(ctx, t, id, p.major, off, n)
		if err == nil {
			s.stats.readsForwarded.Add(1)
			return data, pair, nil
		}
	}
	return nil, version.Pair{}, ErrBusy
}

// awaitOwnReplica runs on the token holder of an unstable major that has no
// current local replica. It waits until the replica lands, the token moves
// or the transfer bringing the replica ends, and runs that transfer itself
// if none is running (§3.1: the holder coordinates every transfer).
func (s *Server) awaitOwnReplica(ctx context.Context, sg *segment, major uint64) {
	sg.mu.Lock()
	ms := sg.majors[major]
	running := ms != nil && ms.transferring
	sg.mu.Unlock()
	if !running {
		s.runTransfer(ctx, sg, major, s.id)
		return
	}
	sg.await(ctx, func() bool {
		ms, rep := sg.majors[major], sg.local[major]
		return ms == nil || ms.holder != s.id || !ms.transferring || rep != nil && rep.pair == ms.pair
	})
}

// sliceReplica extracts [off, off+n) from a replica, clamped to its size.
func sliceReplica(rep *localReplica, off, n int64) ([]byte, version.Pair) {
	size := int64(len(rep.data))
	if off >= size || off < 0 {
		return nil, rep.pair
	}
	end := size
	if n >= 0 && off+n < size {
		end = off + n
	}
	out := make([]byte, end-off)
	copy(out, rep.data[off:end])
	return out, rep.pair
}

// readAfterHolderFailure implements §3.6 ("Stability Notification in the
// Presence of Failure"): when a reader holds (or finds) an unstable replica
// and the token holder has left the view, it broadcasts to the file group
// to find a stable replica; if none exists it forces the most up-to-date
// replica stable and destroys obsolete ones.
func (s *Server) readAfterHolderFailure(ctx context.Context, sg *segment, grp *isis.Group, major uint64, off, n int64) ([]byte, version.Pair, error) {
	cctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	defer cancel()
	replies, err := grp.Cast(cctx, encodeCast(&castMsg{Op: opInquiry, Major: major}), isis.All)
	if err != nil {
		return nil, version.Pair{}, ErrBusy
	}

	var best *castReply
	var bestFrom simnet.NodeID
	var stableFrom simnet.NodeID
	var obsolete []simnet.NodeID
	states := make(map[simnet.NodeID]*castReply)
	for _, r := range replies {
		cr, err := decodeReply(r.Data)
		if err != nil || cr.failed() || !cr.IsReplica {
			continue
		}
		states[r.From] = cr
		if cr.Stable && stableFrom == "" {
			stableFrom = r.From
		}
		if best == nil || cr.Pair.Sub > best.Pair.Sub {
			best, bestFrom = cr, r.From
		}
	}
	if stableFrom != "" {
		if stableFrom == s.id {
			return s.readLocal(sg, major, off, n)
		}
		return s.directRead(ctx, stableFrom, sg.id, major, off, n)
	}
	if best == nil {
		return nil, version.Pair{}, ErrBusy
	}
	for from, cr := range states {
		if cr.Pair.Sub < best.Pair.Sub {
			obsolete = append(obsolete, from)
		}
	}
	_, err = s.castOne(ctx, sg, &castMsg{
		Op:    opForceStable,
		Major: major,
		Pair:  best.Pair,
		Data:  encodeTargets(obsolete),
	})
	if err != nil {
		return nil, version.Pair{}, ErrBusy
	}
	if bestFrom == s.id {
		return s.readLocal(sg, major, off, n)
	}
	return s.directRead(ctx, bestFrom, sg.id, major, off, n)
}

func (s *Server) readLocal(sg *segment, major uint64, off, n int64) ([]byte, version.Pair, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	rep := sg.local[major]
	if rep == nil {
		return nil, version.Pair{}, ErrBusy
	}
	data, pair := sliceReplica(rep, off, n)
	return data, pair, nil
}

// ----------------------------------------------------------------- write --

// waitRevocations blocks until every available member has applied an update
// that revoked outstanding read tokens. A reader that has not applied the
// update still believes it holds its token and would keep serving the
// pre-update data from its replica; collecting all available replies closes
// that window before the write returns to its caller.
//
// The wait is bounded by the caller's context, not one protocol round: the
// call completes as soon as every member either replied or was expelled by
// the failure detector, and an expelled reader loses its token the moment
// it installs the shrunken view — so the barrier resolves on its own and
// only the caller's own deadline can cut it short. No-op when the update
// found no readers (the common case). All members compute HadReaders from
// the same group-agreed reader table, so any one reply decides.
func (s *Server) waitRevocations(ctx context.Context, call *isis.Call) {
	for _, r := range call.Replies() {
		cr, err := decodeReply(r.Data)
		if err != nil || !cr.HadReaders {
			continue
		}
		_, _ = call.Wait(ctx, isis.All)
		return
	}
}

// stabilityAckNode returns the node whose update reply a write must include
// before returning. With stability notification on, reads of the unstable
// file forward to the token holder, so §3.4 requires "the token holder's
// replica ... be updated before a write can return to a client" — and the
// updater is always the holder, i.e. this server.
func (s *Server) stabilityAckNode(params Params) simnet.NodeID {
	if params.Stability {
		return s.id
	}
	return ""
}

// effectiveSafety returns the number of replica acknowledgements a write
// must collect: the write safety level (§4), raised to every available
// replica for hot-read files (§7's read-optimized mode, which keeps all
// replicas current so reads never leave their server).
func (s *Server) effectiveSafety(sg *segment, major uint64, params Params) int {
	safety := params.WriteSafety
	if !params.HotRead {
		return safety
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if ms := sg.majors[major]; ms != nil {
		if n := ms.availableReplicas(sg.view); n > safety {
			safety = n
		}
	}
	return safety
}

// waitWrite collects replies until k replica servers have acknowledged the
// update (one of which must be mustFrom, if non-empty — the token holder
// under stability notification, §3.4), the call completes with fewer than k
// live replicas (degrading to fully synchronous, §4), or ctx expires.
func (s *Server) waitWrite(ctx context.Context, call *isis.Call, k int, mustFrom simnet.NodeID) (version.Pair, error) {
	want := 1
	for {
		wctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
		replies, err := call.Wait(wctx, want)
		cancel()
		var pair version.Pair
		acks := 0
		haveMust := mustFrom == ""
		for _, r := range replies {
			cr, decErr := decodeReply(r.Data)
			if decErr != nil {
				continue
			}
			if cr.failed() {
				return version.Pair{}, replyErr(cr)
			}
			pair = cr.Pair
			if cr.IsReplica {
				acks++
			}
			if r.From == mustFrom {
				haveMust = true
			}
		}
		if acks >= k && haveMust {
			return pair, nil
		}
		select {
		case <-call.Done():
			if cerr := call.Err(); cerr != nil {
				return version.Pair{}, ErrBusy
			}
			// Fewer live replicas than the safety level degrades to fully
			// synchronous (§4) — but at least one replica must actually
			// have applied the data, or nothing durable exists and the
			// write must not be acknowledged.
			if len(replies) > 0 && acks > 0 {
				return pair, nil
			}
			return version.Pair{}, ErrBusy
		default:
		}
		if err != nil {
			if errors.Is(err, isis.ErrDissolved) {
				return version.Pair{}, ErrBusy
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return pair, derr.Wrap(derr.CodeDeadline, "core.write", err)
			}
			return pair, err
		}
		want = len(replies) + 1
	}
}

// ensureDataForFork reports whether this server holds a current copy of
// major's data, first trying to pull it directly from a reachable replica
// when the token holder is unreachable (the token-regeneration case:
// "replicas corresponding to the new token are generated by copying the
// original replica", §3.5 — so the regenerating server must have one).
func (s *Server) ensureDataForFork(ctx context.Context, sg *segment, major uint64) bool {
	sg.mu.Lock()
	rep := sg.local[major]
	ms := sg.majors[major]
	have := rep != nil && ms != nil && rep.pair == ms.pair
	var holderIn bool
	var peers []simnet.NodeID
	if ms != nil {
		holderIn = ms.holder != "" && sg.view.Contains(ms.holder)
		peers = sg.peerReplicasLocked(ms)
	}
	sg.mu.Unlock()
	if have {
		return true
	}
	if holderIn {
		// Normal token pass expected; no fork, no data needed up front.
		return false
	}
	for _, p := range peers {
		if _, err := s.pull(ctx, sg, major, p); err == nil {
			return true
		}
	}
	return false
}

// finishWrite performs the holder's post-update maintenance (Table 1): count
// update replies; if fewer than the minimum replica level replied, generate
// new replicas; if more than the maximum, delete surplus replicas LRU-first.
func (s *Server) finishWrite(sg *segment, major uint64, call *isis.Call) {
	select {
	case <-call.Done():
	case <-time.After(2 * s.opts.OpTimeout):
		return
	case <-s.ctx.Done():
		return
	}
	acks := 0
	for _, r := range call.Replies() {
		if cr, err := decodeReply(r.Data); err == nil && cr.OK && cr.IsReplica {
			acks++
		}
	}

	sg.mu.Lock()
	ms := sg.majors[major]
	if ms == nil || ms.holder != s.id || sg.deleted {
		sg.mu.Unlock()
		return
	}
	params := sg.params
	view := sg.view
	replicas := ms.replicaList()
	disabled := sg.tokenDisabledLocked(ms)
	sg.mu.Unlock()
	if disabled {
		// Medium availability with a minority of the replicas reachable: we
		// may be the partitioned side, and growing fresh replicas here would
		// manufacture a replica-majority and fork the file. Write access
		// stays lost until the replicas return (§4: "some replicas may
		// occasionally be read only").
		return
	}

	// Hot-read files keep a replica on every group member (§7's
	// read-optimized mode), so the regeneration target is the whole view.
	minReplicas := params.MinReplicas
	if params.HotRead && len(view.Members) > minReplicas {
		minReplicas = len(view.Members)
	}
	if acks < minReplicas {
		// Regenerate replicas on members that lack one (§3.1 method 1),
		// recruiting other cell servers into the file group when the current
		// membership is too small to satisfy the level.
		have := make(map[simnet.NodeID]bool, len(replicas))
		for _, r := range replicas {
			have[r] = true
		}
		candidates := append([]simnet.NodeID(nil), view.Members...)
		inView := make(map[simnet.NodeID]bool, len(view.Members))
		for _, m := range view.Members {
			inView[m] = true
		}
		for _, p := range s.proc.Peers() {
			if !inView[p] {
				candidates = append(candidates, p)
			}
		}
		needed := minReplicas - acks
		for _, m := range candidates {
			if needed <= 0 {
				break
			}
			if !have[m] && s.runTransfer(context.Background(), sg, major, m) {
				needed--
			}
		}
	}

	maxR := params.MaxReplicas
	if maxR > 0 && maxR < params.MinReplicas {
		maxR = params.MinReplicas
	}
	if maxR > 0 && len(replicas) > maxR {
		// Delete surplus replicas, oldest first, never the holder's (§3.1:
		// "deleted in least-recently-used order").
		excess := len(replicas) - maxR
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.OpTimeout)
		defer cancel()
		for _, r := range replicas {
			if excess <= 0 {
				break
			}
			if r == s.id {
				continue
			}
			if _, err := s.castOne(ctx, sg, &castMsg{Op: opDeleteReplica, Major: major, Target: r}); err == nil {
				excess--
			}
		}
	}
}

// scheduleStability (re)arms the timer that returns the file to stability
// "after a short period of no write activity" (§3.4).
func (s *Server) scheduleStability(sg *segment, major uint64) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if !sg.params.Stability {
		return
	}
	sg.lastWrite = time.Now()
	if sg.stabTimer != nil {
		sg.stabTimer.Stop()
	}
	sg.stabTimer = time.AfterFunc(s.opts.StabilityDelay, func() {
		s.maybeMarkStable(sg, major)
	})
}

func (s *Server) maybeMarkStable(sg *segment, major uint64) {
	sg.mu.Lock()
	ms := sg.majors[major]
	if ms == nil || ms.holder != s.id || !ms.unstable || sg.deleted || sg.group == nil {
		sg.mu.Unlock()
		return
	}
	if time.Since(sg.lastWrite) < s.opts.StabilityDelay/2 {
		// A write slipped in; the timer will be rearmed by its scheduler.
		sg.mu.Unlock()
		return
	}
	grp := sg.group
	sg.mu.Unlock()
	_ = grp.CastAsync(encodeCast(&castMsg{Op: opMarkStable, Major: major}))
}

// requestReplica asks the holder for a replica of major on target and waits
// for the transfer that decides it. The holder runs one transfer at a time,
// and the request's own reply says which transfer to wait for: accepted, the
// one it starts; refused because one is running (tokBusy), that one. When
// that transfer ends without the replica it returns errRetryNow.
func (s *Server) requestReplica(ctx context.Context, sg *segment, major uint64, target simnet.NodeID) error {
	r, err := s.castSelf(ctx, sg, &castMsg{Op: opRequestReplica, Major: major, Target: target})
	// This member applied the request, so a refusing transfer was running in
	// its state at that slot; an accepted one begins later.
	running := r != nil && r.Outcome == tokBusy
	if err != nil && !running {
		return err
	}
	wctx, cancel := context.WithTimeout(ctx, 5*s.opts.OpTimeout) // runTransfer's budgets
	defer cancel()
	var gone, landed bool
	if !sg.await(wctx, func() bool {
		ms := sg.majors[major]
		gone = ms == nil || sg.deleted
		landed = !gone && ms.replicas[target]
		running = running || !gone && ms.transferring
		return gone || landed || running && !ms.transferring
	}) {
		return ErrBusy
	}
	switch {
	case landed:
		return nil
	case gone:
		return ErrNotFound
	}
	return errRetryNow
}

// requestMigration asks the holder to create a local replica after a
// forwarded access (§3.1 method 4: "as a background activity, a local
// non-volatile replica is generated ... to speed future reads"; "each client
// slowly gathers its working set of files to the server to which it has
// connected"). The request is repeated after each transfer it waited for
// ends, until the replica lands or the attempts run out. Concurrent calls
// for the same major coalesce.
func (s *Server) requestMigration(sg *segment, major uint64) {
	release, ok := sg.claim(&sg.migrating, major)
	if !ok {
		return
	}
	defer release()
	for attempt := 0; attempt < 20; attempt++ {
		if s.requestReplica(s.ctx, sg, major, s.id) != errRetryNow {
			return
		}
	}
}
