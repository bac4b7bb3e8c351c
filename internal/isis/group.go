package isis

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"

	"repro/internal/simnet"
)

var errGroupExists = errors.New("isis: already a member of this group")

// Group is a stable public handle to a process's membership in a named
// group. The handle remains valid across partition dissolve/rejoin cycles;
// operations report ErrDissolved (retryable) while a rejoin is in flight.
type Group struct {
	p    *Process
	name string
}

// Name returns the group name.
func (gr *Group) Name() string { return gr.name }

// View returns the current membership view.
func (gr *Group) View() View {
	var v View
	gr.p.doWait(func() {
		if g := gr.p.groups[gr.name]; g != nil {
			v = g.view.Clone()
		}
	})
	return v
}

// Cast broadcasts payload to the group in total order and waits for k
// replies (or all live members' replies if k is All). It returns early with
// whatever replies arrived if every expected member has replied, so asking
// for more replies than there are members degrades to fully synchronous
// rather than hanging (§4, write safety level).
func (gr *Group) Cast(ctx context.Context, payload []byte, k int) ([]Reply, error) {
	call, err := gr.CastCall(payload)
	if err != nil {
		return nil, err
	}
	return call.Wait(ctx, k)
}

// CastCall broadcasts payload and returns immediately with a Call that
// tracks replies, letting the caller collect the first s replies
// synchronously and keep counting the rest in the background — exactly what
// the token holder does to combine write-safety waits with replica counting
// (§3.1 method 1, §3.3). It is the single-op form of CastBatch.
func (gr *Group) CastCall(payload []byte) (*Call, error) {
	bc, err := gr.CastBatch([][]byte{payload})
	if err != nil {
		return nil, err
	}
	return bc.Op(0), nil
}

// CastAsync broadcasts payload without waiting for any reply (write safety
// level 0: "asynchronous unsafe writes"). The message is still totally
// ordered. CastAsync is safe to call from inside App callbacks.
func (gr *Group) CastAsync(payload []byte) error {
	_, err := gr.CastCall(payload)
	return err
}

// ProbeTargets marks nodes as potentially holding a divergent instance of
// this group, to be probed by the partition-heal mechanism. A Deceit server
// that recreates a file group from its own non-volatile state after a full
// restart probes its cell peers this way, so competing recreations merge
// instead of silently diverging.
func (gr *Group) ProbeTargets(nodes []simnet.NodeID) {
	gr.p.doWait(func() {
		g := gr.p.groups[gr.name]
		if g == nil || g.state != stMember {
			return
		}
		for _, n := range nodes {
			if n != g.me() && !g.view.Contains(n) {
				g.lost[n] = true
			}
		}
	})
}

// Leave withdraws from the group. Remaining members see a view change with
// ReasonLeave.
func (gr *Group) Leave() error {
	var err error
	ok := gr.p.doWait(func() {
		g := gr.p.groups[gr.name]
		if g == nil || g.state == stLeft {
			err = ErrNotMember
			return
		}
		g.beginLeave()
	})
	if !ok {
		return ErrClosed
	}
	return err
}

// Group membership states.
const (
	stJoining = iota + 1
	stMember
	stDissolved
	stLeft
)

// joiner is a pending join request at the coordinator.
type joiner struct {
	node  simnet.NodeID
	flags uint8
}

// viewChange accumulates membership changes at the coordinator until the
// flush completes.
type viewChange struct {
	add          []joiner
	remove       map[simnet.NodeID]bool
	reason       ViewReason
	snapshotting bool
}

// recoverState tracks a coordinator-elect's recovery round.
type recoverState struct {
	responded map[simnet.NodeID]bool
	acked     map[simnet.NodeID]uint64
	deadline  time.Time
}

// gstate is the loop-owned state of one group membership.
type gstate struct {
	p    *Process
	name string
	app  App

	state     int
	reconcile bool
	leaving   bool
	joinDone  chan error

	view View

	// Delivery state (all members).
	delivered uint64
	holdback  map[uint64]*seqRecord
	log       map[uint64]*seqRecord // delivered records since last view install
	dedupIDs  map[simnet.NodeID]*ringSet
	incs      map[simnet.NodeID]uint64 // last seen incarnation per origin

	// Coordinator state.
	nextSeq  uint64
	acks     map[simnet.NodeID]uint64
	dedupSeq map[simnet.NodeID]map[uint64]uint64 // origin -> msgID -> seq
	vc       *viewChange
	wedgeQ   []*env

	// Origin-side cast tracking. inc is this membership's incarnation: a
	// member that leaves and joins again restarts msgIDc at 0 in a new
	// gstate, so its casts need a new incarnation or the old members would
	// drop them as duplicates.
	inc    uint64
	msgIDc uint64
	calls  map[uint64]replySink
	outbox map[uint64]*outboxEntry

	// Failure handling.
	suspects      map[simnet.NodeID]bool
	recovering    *recoverState
	recoverTarget simnet.NodeID // redirect acks during recovery
	lost          map[simnet.NodeID]bool
	lastProbe     time.Time

	dq *deliverQueue
}

type outboxEntry struct {
	req  *env
	sent time.Time
}

func newGState(p *Process, name string, app App) *gstate {
	return &gstate{
		p:        p,
		name:     name,
		app:      app,
		inc:      rand.Uint64() | 1, // non-zero so "unknown" (0) is distinguishable
		holdback: make(map[uint64]*seqRecord),
		log:      make(map[uint64]*seqRecord),
		dedupIDs: make(map[simnet.NodeID]*ringSet),
		incs:     make(map[simnet.NodeID]uint64),
		dedupSeq: make(map[simnet.NodeID]map[uint64]uint64),
		// acks is coordinator state, but a coordinator-elect can self-ack
		// during crash recovery before its first view installs, so the map
		// must always exist.
		acks:     make(map[simnet.NodeID]uint64),
		calls:    make(map[uint64]replySink),
		outbox:   make(map[uint64]*outboxEntry),
		suspects: make(map[simnet.NodeID]bool),
		lost:     make(map[simnet.NodeID]bool),
		dq:       newDeliverQueue(),
	}
}

func (g *gstate) me() simnet.NodeID          { return g.p.ID() }
func (g *gstate) coordinator() simnet.NodeID { return g.view.Coordinator() }
func (g *gstate) isCoordinator() bool        { return g.coordinator() == g.me() }
func (g *gstate) send(to simnet.NodeID, m *env) {
	m.Group = g.name
	g.p.sendEnv(to, m)
}

// elect returns the first live (non-suspect) member, the coordinator-elect.
func (g *gstate) elect() simnet.NodeID {
	for _, m := range g.view.Members {
		if !g.suspects[m] {
			return m
		}
	}
	return ""
}

// ---------------------------------------------------------------- casts --

func (g *gstate) newCast(payload []byte) *Call {
	g.msgIDc++
	id := g.msgIDc
	call := newCall()
	g.calls[id] = call
	req := &env{Kind: kCastReq, Group: g.name, MsgID: id, Origin: g.me(), Inc: g.inc, Payload: payload}
	g.outbox[id] = &outboxEntry{req: req, sent: time.Now()}
	g.routeCastReq(req)
	return call
}

func (g *gstate) routeCastReq(req *env) {
	if g.isCoordinator() {
		g.sequence(req)
	} else {
		g.send(g.coordinator(), req)
	}
}

// sequence assigns a total-order number to a cast request and multicasts it
// to the view. Runs only on the coordinator.
func (g *gstate) sequence(req *env) {
	// A new incarnation of the origin restarts its message-id counter;
	// its dedup history belongs to the dead incarnation.
	if req.Inc != 0 && g.incs[req.Origin] != req.Inc {
		delete(g.dedupSeq, req.Origin)
		delete(g.dedupIDs, req.Origin)
		g.incs[req.Origin] = req.Inc
	}
	if byOrigin, ok := g.dedupSeq[req.Origin]; ok {
		if seq, dup := byOrigin[req.MsgID]; dup {
			// Already sequenced; the origin evidently missed the multicast.
			if rec, ok := g.log[seq]; ok && req.Origin != g.me() {
				g.send(req.Origin, seqEnv(g.name, g.view.ID, rec))
			}
			return
		}
	}
	if g.vc != nil || g.recovering != nil {
		g.wedgeQ = append(g.wedgeQ, req)
		return
	}
	seq := g.nextSeq
	g.nextSeq++
	rec := &seqRecord{Seq: seq, Origin: req.Origin, MsgID: req.MsgID, Inc: req.Inc, Flags: req.Flags & flagBatchCast, Payload: req.Payload}
	byOrigin := g.dedupSeq[req.Origin]
	if byOrigin == nil {
		byOrigin = make(map[uint64]uint64)
		g.dedupSeq[req.Origin] = byOrigin
	}
	byOrigin[req.MsgID] = seq
	for _, m := range g.view.Members {
		g.send(m, seqEnv(g.name, g.view.ID, rec))
	}
}

func seqEnv(name string, viewID uint64, rec *seqRecord) *env {
	return &env{
		Kind:    kCastSeq,
		Group:   name,
		ViewID:  viewID,
		Seq:     rec.Seq,
		Origin:  rec.Origin,
		MsgID:   rec.MsgID,
		Inc:     rec.Inc,
		Flags:   rec.Flags,
		Payload: rec.Payload,
	}
}

func (g *gstate) onSeq(from simnet.NodeID, e *env) {
	if g.state != stMember {
		return
	}
	if e.Seq <= g.delivered {
		// Duplicate (retransmission after a lost ack): re-acknowledge.
		g.sendAck()
		return
	}
	if _, held := g.holdback[e.Seq]; held {
		return
	}
	g.holdback[e.Seq] = &seqRecord{Seq: e.Seq, Origin: e.Origin, MsgID: e.MsgID, Inc: e.Inc, Flags: e.Flags, Payload: e.Payload}
	g.advance()
}

// advance delivers contiguous held-back records in order.
func (g *gstate) advance() {
	progressed := false
	for {
		rec, ok := g.holdback[g.delivered+1]
		if !ok {
			break
		}
		delete(g.holdback, g.delivered+1)
		g.delivered++
		g.log[rec.Seq] = rec
		g.deliverRec(rec)
		progressed = true
	}
	if progressed {
		g.sendAck()
	}
}

func (g *gstate) deliverRec(rec *seqRecord) {
	// A cast from a new incarnation of the origin (a restarted server
	// reusing its node id, or a member that left and joined again) restarts the origin's message-id counter: the
	// accumulated dedup history would silently swallow its casts. The
	// incarnation rides inside the totally ordered record, so every member
	// resets at the same point in the delivery order.
	if rec.Inc != 0 && g.incs[rec.Origin] != rec.Inc {
		delete(g.dedupIDs, rec.Origin)
		g.incs[rec.Origin] = rec.Inc
	}
	// Suppress duplicates that can arise when a cast is re-sequenced after a
	// coordinator failure raced with the origin's retransmission.
	ds := g.dedupIDs[rec.Origin]
	if ds == nil {
		ds = newRingSet(4096)
		g.dedupIDs[rec.Origin] = ds
	}
	if !ds.add(rec.MsgID) {
		return
	}

	mine := rec.Origin == g.me()
	var call replySink
	if mine {
		call = g.calls[rec.MsgID]
		delete(g.outbox, rec.MsgID)
		if call != nil {
			call.setSequenced(g.view.Members)
		}
	}
	app, p, name := g.app, g.p, g.name
	origin, msgID, payload := rec.Origin, rec.MsgID, rec.Payload
	batch := rec.Flags&flagBatchCast != 0
	g.dq.push(func() {
		var reply []byte
		if batch {
			// A batched cast: deliver every sub-op back to back in this one
			// total-order slot and reply with a matching frame of sub-replies.
			subs, err := decodeBatchFrame(payload)
			if err != nil {
				subs = nil
			}
			var outs [][]byte
			if ba, ok := app.(BatchApp); ok {
				// The app wants the batch whole — one group-commit boundary.
				outs = ba.DeliverBatch(origin, subs)
				for len(outs) < len(subs) {
					outs = append(outs, nil)
				}
				outs = outs[:len(subs)]
			} else {
				outs = make([][]byte, len(subs))
				for i, sp := range subs {
					outs[i] = app.Deliver(origin, sp)
				}
			}
			reply = EncodeBatchFrame(outs)
		} else {
			reply = app.Deliver(origin, payload)
		}
		if mine {
			if call != nil {
				call.addReply(p.ID(), reply)
			}
			return
		}
		// Reply directly to the origin; safe to use the transport from the
		// delivery goroutine since the destination is never ourselves.
		_ = sendPooled(p.tr, origin, &env{
			Kind: kReply, Group: name, MsgID: msgID, Payload: reply,
		})
	})
}

func (g *gstate) sendAck() {
	target := g.coordinator()
	if g.recoverTarget != "" {
		target = g.recoverTarget
	}
	if target == g.me() {
		g.acks[g.me()] = g.delivered
		g.checkFlush()
		return
	}
	g.send(target, &env{Kind: kCastAck, Acked: g.delivered})
}

func (g *gstate) onAck(from simnet.NodeID, e *env) {
	if g.acks == nil {
		g.acks = make(map[simnet.NodeID]uint64)
	}
	if e.Acked > g.acks[from] {
		g.acks[from] = e.Acked
	}
	if g.recovering != nil {
		return
	}
	g.checkFlush()
}

func (g *gstate) onNack(from simnet.NodeID, e *env) {
	for _, seq := range e.Seqs {
		if rec, ok := g.log[seq]; ok {
			g.send(from, seqEnv(g.name, g.view.ID, rec))
		}
	}
}

func (g *gstate) onReply(from simnet.NodeID, e *env) {
	if call, ok := g.calls[e.MsgID]; ok {
		call.addReply(from, e.Payload)
	}
}

// ---------------------------------------------------- membership change --

func (g *gstate) requestJoin(j simnet.NodeID, flags uint8) {
	if !g.isCoordinator() || g.state != stMember {
		return
	}
	g.ensureVC(ReasonJoin)
	if g.view.Contains(j) {
		// A stale instance of the same node: replace it.
		g.vc.remove[j] = true
		g.suspects[j] = true
	}
	for _, a := range g.vc.add {
		if a.node == j {
			return
		}
	}
	g.vc.add = append(g.vc.add, joiner{node: j, flags: flags})
	g.checkFlush()
}

func (g *gstate) requestRemove(x simnet.NodeID, reason ViewReason) {
	if !g.isCoordinator() || g.state != stMember || x == g.me() {
		return
	}
	if !g.view.Contains(x) {
		return
	}
	g.ensureVC(reason)
	g.vc.remove[x] = true
	g.suspects[x] = true
	g.checkFlush()
}

func (g *gstate) ensureVC(reason ViewReason) {
	if g.vc == nil {
		g.vc = &viewChange{remove: make(map[simnet.NodeID]bool), reason: reason}
	} else if reason == ReasonFailure {
		g.vc.reason = ReasonFailure
	}
}

// checkFlush completes the pending view change once every live member has
// acknowledged delivery of every sequenced message — the virtual synchrony
// flush.
func (g *gstate) checkFlush() {
	if g.vc == nil || g.vc.snapshotting || g.recovering != nil {
		return
	}
	last := g.nextSeq - 1
	for _, m := range g.view.Members {
		if g.vc.remove[m] || g.suspects[m] {
			continue
		}
		if g.acks[m] < last {
			return
		}
	}
	g.vc.snapshotting = true
	if len(g.vc.add) > 0 {
		// Snapshot must run after every delivered message has been applied,
		// so route it through the delivery queue.
		app, p := g.app, g.p
		name := g.name
		g.dq.push(func() {
			snap := app.Snapshot()
			p.do(func() {
				if cur := p.groups[name]; cur == g {
					g.completeVC(snap)
				}
			})
		})
	} else {
		g.completeVC(nil)
	}
}

func (g *gstate) completeVC(snap []byte) {
	if g.vc == nil || g.state != stMember {
		return
	}
	vc := g.vc
	lastSeq := g.nextSeq - 1
	newID := g.view.ID + 1

	newMembers := make([]simnet.NodeID, 0, len(g.view.Members)+len(vc.add))
	for _, m := range g.view.Members {
		if !vc.remove[m] {
			newMembers = append(newMembers, m)
		}
	}
	for _, a := range vc.add {
		newMembers = append(newMembers, a.node)
	}

	reasonFlags := uint8(vc.reason) << 4
	for _, a := range vc.add {
		g.send(a.node, &env{
			Kind:     kStateXfer,
			ViewID:   newID,
			Members:  newMembers,
			Seq:      lastSeq,
			Snapshot: snap,
			Flags:    a.flags,
		})
	}
	nv := &env{Kind: kNewView, ViewID: newID, Members: newMembers, Seq: lastSeq, Flags: reasonFlags}
	for _, m := range g.view.Members {
		g.send(m, nv)
	}
	g.vc = nil
}

// installView adopts a new view. Called on kNewView (including the one the
// coordinator sends itself).
func (g *gstate) installView(e *env) {
	reason := ViewReason(e.Flags >> 4)
	if reason == 0 {
		reason = ReasonFailure
	}
	old := g.view
	g.view = View{ID: e.ViewID, Members: append([]simnet.NodeID(nil), e.Members...)}

	if !g.view.Contains(g.me()) {
		if g.leaving {
			g.finalizeLeave()
			return
		}
		// We were removed while still alive (false suspicion or the other
		// side of a healed partition won): reconcile by rejoining.
		g.dissolveLocal(e.Members)
		return
	}

	// Track members lost to failure for partition-heal probing.
	if reason == ReasonFailure {
		for _, m := range old.Members {
			if !g.view.Contains(m) && m != g.me() {
				g.lost[m] = true
			}
		}
	}
	for _, m := range g.view.Members {
		delete(g.lost, m)
		delete(g.suspects, m)
		g.p.lastSeen[m] = time.Now() // grace period for new co-members
	}
	// Drop suspicion state for departed members.
	for s := range g.suspects {
		if !g.view.Contains(s) {
			delete(g.suspects, s)
		}
	}

	// The flush guarantees all members delivered through e.Seq, so the log
	// can be pruned and coordinator bookkeeping reset.
	g.log = make(map[uint64]*seqRecord)
	g.dedupSeq = make(map[simnet.NodeID]map[uint64]uint64)
	g.nextSeq = e.Seq + 1
	g.recovering = nil
	g.recoverTarget = ""
	if g.isCoordinator() {
		g.acks = make(map[simnet.NodeID]uint64, len(g.view.Members))
		for _, m := range g.view.Members {
			g.acks[m] = e.Seq
		}
	}

	// Update outstanding calls: failed members will never reply.
	for _, m := range old.Members {
		if !g.view.Contains(m) {
			for _, c := range g.calls {
				c.memberGone(m)
			}
		}
	}

	v := g.view.Clone()
	app := g.app
	g.dq.push(func() { app.ViewChange(v, reason) })

	// Retry unsequenced casts with the (possibly new) coordinator.
	for _, ob := range g.outbox {
		g.routeCastReq(ob.req)
		ob.sent = time.Now()
	}
	// Unwedge queued cast requests if we are the coordinator.
	if g.isCoordinator() && g.vc == nil {
		q := g.wedgeQ
		g.wedgeQ = nil
		for _, req := range q {
			g.sequence(req)
		}
	}
}

func (g *gstate) onNewView(from simnet.NodeID, e *env) {
	if g.state != stMember || e.ViewID <= g.view.ID {
		return
	}
	if g.delivered < e.Seq {
		// Missing messages the flush says we acked — only possible if this
		// kNewView raced a recovery. Ask for the gap; the view will be
		// reinstalled by retransmission.
		missing := make([]uint64, 0, 8)
		for s := g.delivered + 1; s <= e.Seq && len(missing) < 64; s++ {
			if _, held := g.holdback[s]; !held {
				missing = append(missing, s)
			}
		}
		g.send(from, &env{Kind: kCastNack, Seqs: missing})
		return
	}
	g.installView(e)
}

func (g *gstate) onStateXfer(from simnet.NodeID, e *env) {
	if g.state == stMember && e.ViewID <= g.view.ID {
		g.sendAck()
		return
	}
	if g.state == stLeft {
		return
	}
	reconcile := e.Flags&flagReconcile != 0
	g.state = stMember
	g.leaving = false
	g.view = View{ID: e.ViewID, Members: append([]simnet.NodeID(nil), e.Members...)}
	g.delivered = e.Seq
	g.nextSeq = e.Seq + 1
	g.holdback = make(map[uint64]*seqRecord)
	g.log = make(map[uint64]*seqRecord)
	g.suspects = make(map[simnet.NodeID]bool)
	g.recovering = nil
	g.recoverTarget = ""
	for _, m := range g.view.Members {
		g.p.lastSeen[m] = time.Now()
	}

	app := g.app
	snap := e.Snapshot
	v := g.view.Clone()
	reason := ReasonJoin
	if reconcile {
		reason = ReasonMerge
	}
	joinDone := g.joinDone
	g.dq.push(func() {
		if reconcile {
			app.Merge(snap)
		} else {
			app.Restore(snap)
		}
		app.ViewChange(v, reason)
		// Signal the joiner only after its state is installed, so a Join
		// that returns guarantees the app sees the transferred state.
		if joinDone != nil {
			select {
			case joinDone <- nil:
			default:
			}
		}
	})
	g.sendAck()
}

// ------------------------------------------------------------- failures --

// suspect handles a locally detected or reported failure of member x.
func (g *gstate) suspect(x simnet.NodeID) {
	if g.state != stMember || x == g.me() || !g.view.Contains(x) {
		return
	}
	if g.isCoordinator() {
		g.requestRemove(x, ReasonFailure)
		return
	}
	wasSuspect := g.suspects[x]
	g.suspects[x] = true
	if g.coordinator() == x {
		if g.elect() == g.me() {
			g.startRecovery()
		} else if !wasSuspect {
			g.send(g.elect(), &env{Kind: kSuspect, Origin: x})
		}
		return
	}
	if !wasSuspect {
		g.send(g.coordinator(), &env{Kind: kSuspect, Origin: x})
	}
}

func (g *gstate) onSuspect(from simnet.NodeID, e *env) {
	if g.state != stMember || !g.view.Contains(from) {
		return
	}
	if e.Origin == g.me() {
		return
	}
	if g.isCoordinator() {
		g.requestRemove(e.Origin, ReasonFailure)
		return
	}
	// We may be the coordinator-elect being told the coordinator died.
	if e.Origin == g.coordinator() {
		g.suspects[e.Origin] = true
		if g.elect() == g.me() {
			g.startRecovery()
		}
	}
}

// startRecovery runs on the coordinator-elect after the coordinator fails.
// It gathers every survivor's delivered log suffix, re-disseminates records
// some survivors lack, and then installs the next view — preserving the
// virtually synchronous guarantee that all survivors deliver the same
// message sequence before the view change.
func (g *gstate) startRecovery() {
	if g.recovering != nil || g.state != stMember {
		return
	}
	g.recovering = &recoverState{
		responded: map[simnet.NodeID]bool{g.me(): true},
		acked:     map[simnet.NodeID]uint64{g.me(): g.delivered},
		deadline:  time.Now().Add(6 * g.p.opt.RetransInterval),
	}
	g.recoverTarget = g.me()
	req := &env{Kind: kRecoverReq, ViewID: g.view.ID, Acked: g.delivered}
	for _, m := range g.view.Members {
		if m != g.me() && !g.suspects[m] {
			g.send(m, req)
		}
	}
	g.checkRecoveryDone()
}

func (g *gstate) onRecoverReq(from simnet.NodeID, e *env) {
	if g.state != stMember || !g.view.Contains(from) {
		return
	}
	// The sender believes the coordinator failed; adopt that suspicion and
	// redirect future acks to the elect.
	if from != g.coordinator() {
		g.suspects[g.coordinator()] = true
	}
	g.recoverTarget = from
	var batch []seqRecord
	for seq := e.Acked + 1; seq <= g.delivered; seq++ {
		if rec, ok := g.log[seq]; ok {
			batch = append(batch, *rec)
		}
	}
	g.send(from, &env{Kind: kRecoverResp, Acked: g.delivered, Batch: batch})
}

func (g *gstate) onRecoverResp(from simnet.NodeID, e *env) {
	rs := g.recovering
	if rs == nil {
		return
	}
	for i := range e.Batch {
		rec := e.Batch[i]
		if rec.Seq > g.delivered {
			if _, held := g.holdback[rec.Seq]; !held {
				g.holdback[rec.Seq] = &rec
			}
		}
	}
	g.advance()
	rs.responded[from] = true
	rs.acked[from] = e.Acked
	g.checkRecoveryDone()
}

func (g *gstate) checkRecoveryDone() {
	rs := g.recovering
	if rs == nil {
		return
	}
	for _, m := range g.view.Members {
		if g.suspects[m] {
			continue
		}
		if !rs.responded[m] {
			return
		}
	}
	g.finishRecovery()
}

func (g *gstate) finishRecovery() {
	rs := g.recovering
	g.recovering = nil
	g.recoverTarget = ""

	// Re-disseminate records any survivor is missing.
	for _, m := range g.view.Members {
		if m == g.me() || g.suspects[m] {
			continue
		}
		for seq := rs.acked[m] + 1; seq <= g.delivered; seq++ {
			if rec, ok := g.log[seq]; ok {
				g.send(m, seqEnv(g.name, g.view.ID, rec))
			}
		}
	}
	// Act as coordinator: reseed acks from the recovery round, then run a
	// normal flush-and-install removing the dead.
	g.nextSeq = g.delivered + 1
	g.acks = make(map[simnet.NodeID]uint64, len(g.view.Members))
	for m, a := range rs.acked {
		g.acks[m] = a
	}
	g.ensureVC(ReasonFailure)
	for s := range g.suspects {
		if g.view.Contains(s) {
			g.vc.remove[s] = true
		}
	}
	g.checkFlush()
}

// ------------------------------------------------------- leave/dissolve --

func (g *gstate) beginLeave() {
	g.leaving = true
	if len(g.view.Members) == 1 {
		g.finalizeLeave()
		return
	}
	if g.isCoordinator() {
		g.ensureVC(ReasonLeave)
		g.vc.remove[g.me()] = true
		g.checkFlush()
		return
	}
	g.send(g.coordinator(), &env{Kind: kLeaveReq})
}

// checkFlush treats a removal of self specially: we must not require our own
// future acks. requestRemove blocks x == me, so coordinator self-removal
// goes through beginLeave, where the flush still counts our own acks (we are
// alive); nothing special is needed.

func (g *gstate) onLeaveReq(from simnet.NodeID, e *env) {
	if g.isCoordinator() {
		g.requestRemoveForLeave(from)
	}
}

func (g *gstate) requestRemoveForLeave(x simnet.NodeID) {
	if g.state != stMember || !g.view.Contains(x) {
		return
	}
	g.ensureVC(ReasonLeave)
	g.vc.remove[x] = true
	// A leaver keeps acking until the view excludes it, so it is not marked
	// suspect; the flush still waits for it, which is correct (it must
	// deliver everything sequenced before its departure).
	g.checkFlush()
}

func (g *gstate) finalizeLeave() {
	g.failCalls(ErrNotMember)
	g.state = stLeft
	app := g.app
	g.dq.push(func() { app.ViewChange(View{}, ReasonLeave) })
	delete(g.p.groups, g.name)
	g.dq.stopAsync()
}

// dissolveLocal tears down this member's side after losing a partition-heal
// comparison (or after being falsely removed) and starts the reconciling
// rejoin toward the winning members.
func (g *gstate) dissolveLocal(winner []simnet.NodeID) {
	if g.state != stMember {
		return
	}
	g.failCalls(ErrDissolved)
	g.state = stDissolved
	app := g.app
	g.dq.push(func() { app.ViewChange(View{}, ReasonDissolve) })
	hint := append([]simnet.NodeID(nil), winner...)
	go g.p.rejoinAfterDissolve(g.name, app, hint)
}

func (g *gstate) failCalls(err error) {
	for id, c := range g.calls {
		c.fail(err)
		delete(g.calls, id)
	}
	g.outbox = make(map[uint64]*outboxEntry)
}

// ------------------------------------------------------ partition heal --

func (g *gstate) onProbe(from simnet.NodeID, e *env) {
	if g.state != stMember {
		return
	}
	if g.view.Contains(from) && e.ViewID == g.view.ID {
		return // already merged; prober's lost entry clears on next install
	}
	myN, theirN := len(g.view.Members), len(e.Members)
	mineWins := myN > theirN || (myN == theirN && g.coordinator() < e.Origin)
	if mineWins {
		// Tell the losing coordinator to dissolve toward us.
		g.send(from, &env{Kind: kProbeWin, Members: g.view.Clone().Members})
		return
	}
	// Our side loses; route the news to our coordinator.
	if g.isCoordinator() {
		g.dissolveSide(e.Members)
	} else {
		g.send(g.coordinator(), &env{Kind: kProbeWin, Members: e.Members})
	}
}

func (g *gstate) onProbeWin(from simnet.NodeID, e *env) {
	if g.state != stMember || !g.isCoordinator() {
		return
	}
	// Verify we still lose against the claimed winner.
	myN, theirN := len(g.view.Members), len(e.Members)
	theirCoord := simnet.NodeID("")
	if len(e.Members) > 0 {
		theirCoord = e.Members[0]
	}
	if myN > theirN || (myN == theirN && g.coordinator() < theirCoord) {
		return // stale claim
	}
	g.dissolveSide(e.Members)
}

// dissolveSide orders every member of this side to dissolve and rejoin the
// winning side.
func (g *gstate) dissolveSide(winner []simnet.NodeID) {
	d := &env{Kind: kDissolve, Members: winner}
	for _, m := range g.view.Members {
		g.send(m, d)
	}
}

func (g *gstate) onDissolve(from simnet.NodeID, e *env) {
	if g.state != stMember || !g.view.Contains(from) {
		return
	}
	g.dissolveLocal(e.Members)
}

func (g *gstate) onProbeGone(from simnet.NodeID) {
	delete(g.lost, from)
}

// ----------------------------------------------------------- dispatcher --

func (g *gstate) handle(from simnet.NodeID, e *env) {
	switch e.Kind {
	case kCastReq:
		if g.state != stMember {
			return
		}
		if g.isCoordinator() {
			g.sequence(e)
		} else {
			g.send(g.coordinator(), e)
		}
	case kCastSeq:
		g.onSeq(from, e)
	case kCastAck:
		g.onAck(from, e)
	case kCastNack:
		g.onNack(from, e)
	case kReply:
		g.onReply(from, e)
	case kJoinReq:
		if g.state != stMember {
			return
		}
		j := e.Origin
		if j == "" {
			j = from
		}
		if g.isCoordinator() {
			g.requestJoin(j, e.Flags)
		} else {
			g.send(g.coordinator(), &env{Kind: kJoinFwd, Origin: j, Flags: e.Flags})
		}
	case kJoinFwd:
		g.requestJoin(e.Origin, e.Flags)
	case kLeaveReq:
		g.onLeaveReq(from, e)
	case kSuspect:
		g.onSuspect(from, e)
	case kNewView:
		g.onNewView(from, e)
	case kStateXfer:
		g.onStateXfer(from, e)
	case kRecoverReq:
		g.onRecoverReq(from, e)
	case kRecoverResp:
		g.onRecoverResp(from, e)
	case kProbe:
		g.onProbe(from, e)
	case kProbeWin:
		g.onProbeWin(from, e)
	case kProbeGone:
		g.onProbeGone(from)
	case kDissolve:
		g.onDissolve(from, e)
	}
}

// tick performs periodic per-group work.
func (g *gstate) tick(now time.Time) {
	if g.state != stMember {
		return
	}

	// Coordinator: retransmit sequenced records members have not acked.
	if g.isCoordinator() {
		last := g.nextSeq - 1
		for _, m := range g.view.Members {
			if m == g.me() || g.suspects[m] {
				continue
			}
			for seq := g.acks[m] + 1; seq <= last && seq <= g.acks[m]+32; seq++ {
				if rec, ok := g.log[seq]; ok {
					g.send(m, seqEnv(g.name, g.view.ID, rec))
				}
			}
		}
		g.checkFlush()

		// Probe members lost to suspected partitions (§3.6 heal detection).
		if len(g.lost) > 0 && now.Sub(g.lastProbe) >= g.p.opt.ProbeInterval {
			g.lastProbe = now
			probe := &env{Kind: kProbe, ViewID: g.view.ID, Members: g.view.Clone().Members, Origin: g.me()}
			for x := range g.lost {
				g.send(x, probe)
			}
		}
	} else {
		// Member: nack gaps in the holdback queue.
		if len(g.holdback) > 0 {
			var missing []uint64
			maxHeld := g.delivered
			for s := range g.holdback {
				if s > maxHeld {
					maxHeld = s
				}
			}
			for s := g.delivered + 1; s <= maxHeld && len(missing) < 64; s++ {
				if _, held := g.holdback[s]; !held {
					missing = append(missing, s)
				}
			}
			if len(missing) > 0 {
				target := g.coordinator()
				if g.recoverTarget != "" {
					target = g.recoverTarget
				}
				g.send(target, &env{Kind: kCastNack, Seqs: missing})
			}
		}
		// Leaver: keep asking.
		if g.leaving {
			g.send(g.coordinator(), &env{Kind: kLeaveReq})
		}
	}

	// Origin: retransmit cast requests that were never sequenced.
	for _, ob := range g.outbox {
		if now.Sub(ob.sent) >= g.p.opt.RetransInterval {
			ob.sent = now
			g.routeCastReq(ob.req)
		}
	}

	// Recovery timeout: drop non-responders and finish with the rest.
	if rs := g.recovering; rs != nil && now.After(rs.deadline) {
		for _, m := range g.view.Members {
			if !rs.responded[m] {
				g.suspects[m] = true
			}
		}
		g.finishRecovery()
	}
}

// ------------------------------------------------------------ utilities --

// ringSet is a fixed-capacity set with FIFO eviction, used to deduplicate
// deliveries by (origin, msgID) across view changes.
type ringSet struct {
	order []uint64
	set   map[uint64]bool
	cap   int
}

func newRingSet(capacity int) *ringSet {
	return &ringSet{set: make(map[uint64]bool, capacity), cap: capacity}
}

// add inserts v, reporting false if it was already present.
func (r *ringSet) add(v uint64) bool {
	if r.set[v] {
		return false
	}
	r.set[v] = true
	r.order = append(r.order, v)
	if len(r.order) > r.cap {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.set, old)
	}
	return true
}

// deliverQueue serializes application callbacks for one group on a single
// goroutine with an unbounded buffer, so the protocol loop never blocks on
// the application. On stop the queue drains outstanding callbacks before
// exiting, so a final ViewChange is always delivered.
type deliverQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       []func()
	stopped bool
}

func newDeliverQueue() *deliverQueue {
	dq := &deliverQueue{}
	dq.cond = sync.NewCond(&dq.mu)
	go dq.run()
	return dq
}

func (dq *deliverQueue) run() {
	for {
		dq.mu.Lock()
		for len(dq.q) == 0 && !dq.stopped {
			dq.cond.Wait()
		}
		if len(dq.q) == 0 {
			dq.mu.Unlock()
			return
		}
		f := dq.q[0]
		dq.q = dq.q[1:]
		dq.mu.Unlock()
		f()
	}
}

func (dq *deliverQueue) push(f func()) {
	dq.mu.Lock()
	if !dq.stopped {
		dq.q = append(dq.q, f)
		dq.cond.Signal()
	}
	dq.mu.Unlock()
}

func (dq *deliverQueue) stop() {
	dq.mu.Lock()
	dq.stopped = true
	dq.cond.Broadcast()
	dq.mu.Unlock()
}

func (dq *deliverQueue) stopAsync() { dq.stop() }
