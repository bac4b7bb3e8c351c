package core

import (
	"context"
	"errors"

	"repro/internal/isis"
	"repro/internal/version"
)

// This file implements the one write path. Every write — a single Write is
// a one-op batch — is a run of updates to one segment packed into a single
// totally ordered cast. Its first op is an opTokenUpdate — the paper's §3.3
// piggyback cast, which passes (or trivially grants) the token, marks
// replicas unstable, and applies the first update in one total-order slot —
// and every following op is a plain opUpdate riding the same slot, so a run
// of N updates costs one communication round instead of N, and a write from
// a server without the token costs one round instead of Table 1's three.

// batchMax bounds the number of updates packed into one batched cast.
const batchMax = 64

// WriteBatch applies a run of updates to one segment, packing each run of
// up to batchMax updates to the same version stream into a single
// total-order cast. It returns the post-write version pair of each update,
// in order. The ops are applied independently and in order at every member:
// an op that fails (e.g. an Expect conflict) does not stop later ops in the
// batch, exactly as a sequential loop that retried the failed op last would
// behave. The first definitive per-op error is returned alongside the pairs
// collected so far.
func (s *Server) WriteBatch(ctx context.Context, id SegID, reqs []WriteReq) ([]version.Pair, error) {
	pairs := make([]version.Pair, len(reqs))
	for first := 0; first < len(reqs); {
		// One cast targets one version stream: a change of explicit major
		// starts the next cast.
		n := 1
		for n < len(reqs)-first && n < batchMax && reqs[first+n].Major == reqs[first].Major {
			n++
		}
		chunk := reqs[first : first+n]
		ps, errs, err := s.writeRetry(ctx, id, chunk)
		if err != nil {
			return pairs, err
		}
		for i := range chunk {
			if IsRetryable(errs[i]) {
				// A retryable per-op failure (e.g. a follower whose token op
				// was refused): redo just that op as a batch of its own.
				p, e, err := s.writeRetry(ctx, id, chunk[i:i+1])
				if err != nil {
					return pairs, err
				}
				ps[i], errs[i] = p[0], e[0]
			}
		}
		for i := range chunk {
			if errs[i] != nil {
				return pairs, errs[i]
			}
			pairs[first+i] = ps[i]
		}
		first += n
	}
	return pairs, nil
}

// writeRetry runs writeBatchAttempt until its outcome is not retryable. A
// one-op batch has nothing to redo separately, so its op's retryable
// failure retries the whole attempt.
func (s *Server) writeRetry(ctx context.Context, id SegID, reqs []WriteReq) (ps []version.Pair, errs []error, err error) {
	err = s.retry(ctx, func() error {
		var err error
		ps, errs, err = s.writeBatchAttempt(ctx, id, reqs)
		if err == nil && len(reqs) == 1 && IsRetryable(errs[0]) {
			return errs[0]
		}
		return err
	})
	return ps, errs, err
}

// writeBatchAttempt opens the segment and runs one batched cast. The
// returned error is batch-level (nothing applied; retryable errors mean the
// whole batch may be retried); errs reports per-op outcomes.
func (s *Server) writeBatchAttempt(ctx context.Context, id SegID, reqs []WriteReq) ([]version.Pair, []error, error) {
	sg, err := s.openSegment(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	grp, n, err := s.awaitLive(ctx, sg)
	if err != nil {
		return nil, nil, err
	}
	sg.mu.Lock()
	if sg.deleted {
		sg.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	major := reqs[0].Major
	if major == 0 {
		major = sg.currentMajorLocked()
	}
	if sg.majors[major] == nil {
		sg.mu.Unlock()
		return nil, nil, ErrNotFound
	}
	params := sg.params
	sg.mu.Unlock()
	return s.writeBatchOnce(ctx, sg, grp, n, major, reqs, params)
}

// writeBatchOnce performs one batched cast: op 0 is the combined token
// request, unstable mark and update (§3.3 optimization 1), ops 1..n-1 are
// plain updates resolved against whichever major the token op granted (see
// segment.resolveUpdateMajor). All ops share one total-order slot. Then
// come Table 1's postconditions: the write-safety number of replica replies
// (§4), the return to stability (§3.4) and replica maintenance (§3.1).
// grp and n are awaitLive's.
func (s *Server) writeBatchOnce(ctx context.Context, sg *segment, grp *isis.Group, n uint64, major uint64, reqs []WriteReq, params Params) ([]version.Pair, []error, error) {
	sg.mu.Lock()
	// A holder already streaming, with no transfer freezing updates, expects
	// its token op to answer tokHeld.
	ms := sg.majors[major]
	held := ms != nil && ms.holder == s.id && (ms.unstable || !params.Stability) && !ms.transferring
	sg.mu.Unlock()

	proposed := s.majAlloc.Next()
	hasData := s.ensureDataForFork(ctx, sg, major)
	payloads := make([][]byte, len(reqs))
	payloads[0] = encodeCast(&castMsg{
		Op: opTokenUpdate, Major: major, NewMajor: proposed,
		Off: reqs[0].Off, Data: reqs[0].Data, Truncate: reqs[0].Truncate,
		Expect: reqs[0].Expect, HasData: hasData,
	})
	for i := 1; i < len(reqs); i++ {
		payloads[i] = encodeCast(&castMsg{
			Op: opUpdate, Major: major, NewMajor: proposed,
			Off: reqs[i].Off, Data: reqs[i].Data, Truncate: reqs[i].Truncate,
			Expect: reqs[i].Expect,
		})
	}

	bc, err := grp.CastBatch(payloads)
	if err != nil {
		if errors.Is(err, isis.ErrDissolved) {
			return nil, nil, s.awaitRejoin(ctx, sg, n)
		}
		return nil, nil, err
	}

	pairs := make([]version.Pair, len(reqs))
	errs := make([]error, len(reqs))
	if held && s.effectiveSafety(sg, major, params) <= 0 && !conditional(reqs) {
		// An asynchronous unsafe write (§4) from the holder of an unstable
		// stream returns before any replica replies.
		go s.finishWrite(sg, major, bc.Op(bc.Len()-1))
		s.scheduleStability(sg, major)
		return pairs, errs, nil
	}

	// The token op decides the batch's fate: its outcome tells us whether
	// the token passed (and to which major); tokBusy/tokUnavailable mean no
	// op in the batch changed holder state.
	wctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	replies, err := bc.Op(0).Wait(wctx, 1)
	cancel()
	if errors.Is(err, isis.ErrDissolved) {
		return nil, nil, s.awaitRejoin(ctx, sg, n)
	}
	if err != nil || len(replies) == 0 {
		return nil, nil, ErrBusy
	}
	first, decErr := decodeReply(replies[0].Data)
	if decErr != nil {
		return nil, nil, ErrBusy
	}
	switch first.Outcome {
	case tokUnavailable:
		return nil, nil, ErrWriteUnavailable
	case tokBusy:
		return nil, nil, s.awaitTransferEnd(ctx, sg, bc.Op(0), major)
	case 0:
		// Refused ahead of the token phase (a lost Expect race, a missing
		// version): the token did not move, so every follower was refused
		// as an update from a non-holder and is redone on its own.
		errs[0] = replyErr(first)
		for i := 1; i < len(reqs); i++ {
			errs[i] = ErrBusy
		}
		return pairs, errs, nil
	}
	granted := first.Major

	sg.mu.Lock()
	_, haveReplica := sg.local[granted]
	sg.mu.Unlock()
	if params.Stability && first.Outcome != tokHeld || !haveReplica {
		// The cast passed the token or began an unstable stream: every
		// available member, this one included, must have applied it before
		// we act as the holder. Readers forward to the holder in their own
		// state, so a deposed holder that had not applied the pass could
		// briefly serve stale reads, and a member that had not applied the
		// unstable mark would serve its own replica, which the update is
		// leaving behind; and a transfer is run by the holder in its own
		// state.
		actx, acancel := context.WithTimeout(ctx, s.opts.OpTimeout)
		_, _ = bc.Op(0).Wait(actx, isis.All)
		acancel()
	}
	if !haveReplica {
		// While the file is unstable, reads forward to us, so pull a local
		// replica before returning (§3.4). The update already applied at
		// the replicas in its slot, so a failed pull does not fail the
		// write: our reads wait for the next one.
		s.runTransfer(ctx, sg, granted, s.id)
	}

	defer func() {
		// Replica maintenance counts the last op's replies: they reflect the
		// membership state after the whole run applied.
		go s.finishWrite(sg, granted, bc.Op(bc.Len()-1))
		s.scheduleStability(sg, granted)
	}()

	safety := s.effectiveSafety(sg, granted, params)
	mustFrom := s.stabilityAckNode(params)
	if first.failed() {
		errs[0] = replyErr(first)
	} else if safety > 0 {
		pairs[0], errs[0] = s.waitWrite(ctx, bc.Op(0), safety, mustFrom)
	}
	for i := 1; i < len(reqs); i++ {
		if safety <= 0 {
			// Asynchronous unsafe writes return before any replica replies
			// (§4); a quick first-reply peek still surfaces deterministic
			// rejections (conflicts) the caller must see.
			continue
		}
		pairs[i], errs[i] = s.waitWrite(ctx, bc.Op(i), safety, mustFrom)
	}
	if safety <= 0 {
		// Surface deterministic per-op rejections without waiting on replica
		// acks: the origin's own reply arrives with the local delivery.
		s.collectAsyncErrs(ctx, bc, errs)
	} else if errs[0] == nil {
		// Op 0 is the batch's first update in the slot, so it is the one
		// whose reply reports revoked read tokens; collect the revocation
		// acks before the batch returns.
		s.waitRevocations(ctx, bc.Op(0))
	}
	return pairs, errs, nil
}

// awaitTransferEnd runs after a token op was refused because major is
// transferring (§3.1). It waits for this member to apply that op, so the
// transfer is in its own state too, and then for the transfer to end.
func (s *Server) awaitTransferEnd(ctx context.Context, sg *segment, call *isis.Call, major uint64) error {
	wctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	defer cancel()
	if _, err := s.ownReply(wctx, call); err != nil {
		return ErrBusy
	}
	if !sg.await(wctx, func() bool {
		ms := sg.majors[major]
		return ms == nil || !ms.transferring
	}) {
		return ErrBusy
	}
	return errRetryNow
}

// conditional reports whether any op carries an Expect: its outcome is the
// answer its caller asked for, so even an asynchronous write waits for it.
func conditional(reqs []WriteReq) bool {
	for _, r := range reqs {
		if !r.Expect.IsZero() {
			return true
		}
	}
	return false
}

// collectAsyncErrs waits briefly for the first reply of each op of an async
// (safety 0) batch and records deterministic rejections. Members apply casts
// identically, so any single reply reports conflicts faithfully.
func (s *Server) collectAsyncErrs(ctx context.Context, bc *isis.BatchCall, errs []error) {
	wctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	defer cancel()
	for i := 1; i < bc.Len(); i++ {
		replies, err := bc.Op(i).Wait(wctx, 1)
		if err != nil || len(replies) == 0 {
			continue
		}
		if cr, decErr := decodeReply(replies[0].Data); decErr == nil && cr.failed() {
			errs[i] = replyErr(cr)
		}
	}
}
