package core

import (
	"context"
	"errors"

	"repro/internal/isis"
	"repro/internal/version"
)

// This file implements batched writes: a run of updates to one segment
// packed into a single totally ordered cast. The first op of every batch is
// an opTokenUpdate — the paper's §3.3 piggyback cast, which passes (or
// trivially grants) the token, marks replicas unstable, and applies the
// first update in one total-order slot — and every following op is a plain
// opUpdate riding the same slot, so a run of N same-holder updates costs one
// communication round instead of N.
//
// Two callers feed it: Server.WriteBatch, the explicit multi-op call the NFS
// envelope uses for multi-block writes and header+payload bursts, and
// writeOnce under Options.Piggyback, which sends a single write as a
// one-op batch.

// batchMax bounds the number of updates packed into one batched cast.
const batchMax = 64

// WriteBatch applies a run of updates to one segment, packing them into a
// single total-order cast whenever possible. It returns the post-write
// version pair of each update, in order. The ops are applied independently
// and in order at every member: an op that fails (e.g. an Expect conflict)
// does not stop later ops in the batch, exactly as a sequential loop that
// retried the failed op last would behave. The first definitive per-op error
// is returned alongside the pairs collected so far.
func (s *Server) WriteBatch(ctx context.Context, id SegID, reqs []WriteReq) ([]version.Pair, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) == 1 {
		pair, err := s.Write(ctx, id, reqs[0])
		return []version.Pair{pair}, err
	}
	// The batch cast targets one version stream: mixed explicit majors fall
	// back to the sequential path.
	for _, r := range reqs {
		if r.Major != reqs[0].Major {
			return s.writeSeq(ctx, id, reqs)
		}
	}

	pairs := make([]version.Pair, len(reqs))
	for first := 0; first < len(reqs); {
		chunk := reqs[first:]
		if len(chunk) > batchMax {
			chunk = chunk[:batchMax]
		}
		var ps []version.Pair
		var errs []error
		err := s.retry(ctx, func() error {
			var err error
			ps, errs, err = s.writeBatchAttempt(ctx, id, chunk)
			return err
		})
		if err != nil {
			return pairs, err
		}
		for i := range chunk {
			if errs[i] == nil {
				pairs[first+i] = ps[i]
				continue
			}
			if !IsRetryable(errs[i]) {
				return pairs, errs[i]
			}
			// A retryable per-op failure (e.g. the token op lost a race):
			// redo just that op through the ordinary write path.
			p, werr := s.Write(ctx, id, chunk[i])
			if werr != nil {
				return pairs, werr
			}
			pairs[first+i] = p
		}
		first += len(chunk)
	}
	return pairs, nil
}

// writeSeq is the sequential fallback for batches the combined cast cannot
// express.
func (s *Server) writeSeq(ctx context.Context, id SegID, reqs []WriteReq) ([]version.Pair, error) {
	pairs := make([]version.Pair, len(reqs))
	for i, r := range reqs {
		p, err := s.Write(ctx, id, r)
		if err != nil {
			return pairs, err
		}
		pairs[i] = p
	}
	return pairs, nil
}

// writeBatchAttempt opens the segment and runs one batched cast. The
// returned error is batch-level (nothing applied; retryable errors mean the
// whole batch may be retried); errs reports per-op outcomes.
func (s *Server) writeBatchAttempt(ctx context.Context, id SegID, reqs []WriteReq) ([]version.Pair, []error, error) {
	sg, err := s.openSegment(ctx, id)
	if err != nil {
		return nil, nil, err
	}
	sg.mu.Lock()
	if sg.dissolved {
		sg.mu.Unlock()
		return nil, nil, ErrBusy
	}
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
	ready := sg.readyLocked()
	sg.mu.Unlock()
	if !ready {
		return nil, nil, ErrBusy
	}
	return s.writeBatchOnce(ctx, sg, major, reqs, params)
}

// writeBatchOnce performs one batched piggyback cast: op 0 is the combined
// token-request-plus-update (§3.3 optimization 1), ops 1..n-1 are plain
// updates resolved against whichever major the token op granted (see
// segment.resolveUpdateMajor). All ops share one total-order slot.
func (s *Server) writeBatchOnce(ctx context.Context, sg *segment, major uint64, reqs []WriteReq, params Params) ([]version.Pair, []error, error) {
	sg.mu.Lock()
	grp := sg.group
	dissolved := sg.dissolved
	sg.mu.Unlock()
	if grp == nil || dissolved {
		return nil, nil, ErrBusy
	}

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
			return nil, nil, ErrBusy
		}
		return nil, nil, err
	}

	// The token op decides the batch's fate: its outcome tells us whether
	// the token passed (and to which major); tokBusy/tokUnavailable mean no
	// op in the batch changed holder state.
	wctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	replies, err := bc.Op(0).Wait(wctx, 1)
	cancel()
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
		return nil, nil, ErrBusy
	}
	granted := first.Major
	if granted == 0 {
		granted = major
	}

	// We are the holder now; while the file is unstable, reads forward to
	// us, so grow a local replica in the background rather than spending a
	// synchronous round on it (readers retry until it lands).
	sg.mu.Lock()
	_, haveReplica := sg.local[granted]
	sg.mu.Unlock()
	if !haveReplica {
		go s.runTransfer(context.Background(), sg, granted, s.id)
	}

	defer func() {
		// Replica maintenance counts the last op's replies: they reflect the
		// membership state after the whole run applied.
		go s.finishWrite(sg, granted, bc.Op(bc.Len()-1))
		s.scheduleStability(sg, granted)
	}()

	if params.Stability {
		// The cast carried the token pass: every available member must have
		// applied it before we act as the new holder, or a deposed holder
		// could briefly serve stale reads (see acquireToken).
		actx, acancel := context.WithTimeout(ctx, s.opts.OpTimeout)
		_, _ = bc.Op(0).Wait(actx, isis.All)
		acancel()
	}

	safety := s.effectiveSafety(sg, granted, params)
	mustFrom := s.stabilityAckNode(params)
	pairs := make([]version.Pair, len(reqs))
	errs := make([]error, len(reqs))
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
		// acks before the batch returns (same barrier as Write).
		s.waitRevocations(ctx, bc.Op(0))
	}
	return pairs, errs, nil
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
