package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/derr"
	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/wire"
)

// majorState is the group-agreed metadata of one major version. Every field
// is driven exclusively by delivered casts (plus merge reconciliation), so
// all members agree on it.
//
// The token state is a table with two mutually exclusive sides (§4's
// concurrency-control spectrum): the exclusive write token (holder) and N
// shared read tokens (readers). A read token certifies that its holder's
// replica applied every update sequenced before the grant, so the holder may
// answer reads from local state even while the file is unstable; any update
// revokes all read tokens in its own total-order slot (see applyUpdate), and
// the writer does not return until the revocations are acknowledged.
type majorState struct {
	major        uint64
	holder       simnet.NodeID // write-token holder; may have crashed
	pair         version.Pair  // the token's version pair (§3.5)
	size         int64
	unstable     bool
	transferring bool
	transferTo   simnet.NodeID // target of the running transfer
	replicas     map[simnet.NodeID]bool
	order        []simnet.NodeID        // replica addition order, for LRU deletion
	readers      map[simnet.NodeID]bool // shared read-token holders
}

func newMajorState(major uint64) *majorState {
	return &majorState{
		major:    major,
		replicas: make(map[simnet.NodeID]bool),
		readers:  make(map[simnet.NodeID]bool),
	}
}

// revokeReadersLocked clears every outstanding read token, reporting whether
// any existed. The caller's cast slot is the revocation point: a reader that
// has not yet applied this slot still believes it holds the token, which is
// why writers wait for all available members' replies when this returns true
// (see Server.waitRevocations).
func (ms *majorState) revokeReadersLocked() bool {
	if len(ms.readers) == 0 {
		return false
	}
	ms.readers = make(map[simnet.NodeID]bool)
	return true
}

func (ms *majorState) addReplica(n simnet.NodeID) {
	if !ms.replicas[n] {
		ms.replicas[n] = true
		ms.order = append(ms.order, n)
	}
}

func (ms *majorState) dropReplica(n simnet.NodeID) {
	delete(ms.replicas, n)
	for i, o := range ms.order {
		if o == n {
			ms.order = append(ms.order[:i], ms.order[i+1:]...)
			break
		}
	}
}

func (ms *majorState) replicaList() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(ms.replicas))
	for _, n := range ms.order {
		if ms.replicas[n] {
			out = append(out, n)
		}
	}
	return out
}

// availableReplicas counts replicas reachable in view v.
func (ms *majorState) availableReplicas(v isis.View) int {
	n := 0
	for r := range ms.replicas {
		if v.Contains(r) {
			n++
		}
	}
	return n
}

// localReplica is this server's non-volatile copy of one major version.
type localReplica struct {
	data   []byte
	pair   version.Pair
	stable bool
}

// segment is one server's view of a segment: the replicated metadata plus
// any local replica data. It implements the group state machine.
type segment struct {
	srv *Server
	id  SegID

	mu         sync.Mutex
	params     Params
	branches   *version.Log
	majors     map[uint64]*majorState
	local      map[uint64]*localReplica // majors replicated on this server
	deleted    bool
	view       isis.View
	dissolved  bool
	dissolves  uint64 // dissolve views seen; see Server.awaitRejoin
	lastWrite  time.Time
	stabTimer  *time.Timer
	migrating  map[uint64]bool // majors with an in-flight migration loop
	refreshing map[uint64]bool // majors with an in-flight stale-replica refresh
	graceUntil time.Time       // until then, a recovery-recreated group must not serve

	// epoch is the segment's lease epoch: a counter bumped by every cast that
	// can change what a reader of the segment observes (updates, unstable
	// marks, forced stability, version deletion, merges). It is driven only by
	// delivered casts, so every member agrees on it, and it is persisted with
	// the metadata so restarts never reissue an old value. Client caches stamp
	// entries with the epoch and drop them on mismatch — an explicit coherence
	// contract replacing time-based expiry.
	epoch uint64

	// readDenied is a member-local damper: after a read-token grant was
	// refused (minority partition), further grant attempts are suppressed
	// until the view changes or an update lands, so a partitioned reader does
	// not pay one doomed cast per read.
	readDenied bool

	group *isis.Group

	// dirty is the group-commit window (§3.5): the store records written by
	// the entry point now holding sg.mu — a delivered cast (one op or a
	// batch), createSeg, a transfer install or a Merge. Each entry point
	// stages its records and ends with commitLocked before it releases
	// sg.mu, so one entry point's records never ride another's batch, the
	// batches reach the store in apply order, and nothing is acknowledged
	// before its own PutBatch returns. Empty whenever sg.mu is free.
	dirty []store.Op

	// changed is made by an await and closed (and reset) by every event
	// one can wait for: a commit, a view change or snapshot install, the
	// group handle being stored, and the recovery grace window closing.
	changed chan struct{}
}

// await blocks until cond, evaluated under sg.mu, holds, reporting false
// instead if ctx expires or the server closes first. cond is re-checked
// after every state change (see segment.changed), so a waiter wakes on the
// delivery that decides it, not on a poll interval.
func (sg *segment) await(ctx context.Context, cond func() bool) bool {
	sg.mu.Lock()
	for !cond() {
		if sg.changed == nil {
			sg.changed = make(chan struct{})
		}
		ch := sg.changed
		sg.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return false
		case <-sg.srv.ctx.Done():
			return false
		}
		sg.mu.Lock()
	}
	sg.mu.Unlock()
	return true
}

// wakeLocked wakes every await on sg to re-check its condition.
func (sg *segment) wakeLocked() {
	if sg.changed != nil {
		close(sg.changed)
		sg.changed = nil
	}
}

// setGroup stores the segment's group handle and wakes its waiters.
func (sg *segment) setGroup(grp *isis.Group) {
	sg.mu.Lock()
	sg.group = grp
	sg.wakeLocked()
	sg.mu.Unlock()
}

// stageLocked adds op to the commit window, keeping first-write order with
// the last value winning per key: a cast that rewrites the same record
// several times commits it once.
func (sg *segment) stageLocked(op store.Op) {
	for i := range sg.dirty {
		if sg.dirty[i].Bucket == op.Bucket && sg.dirty[i].Key == op.Key {
			sg.dirty[i] = op
			return
		}
	}
	sg.dirty = append(sg.dirty, op)
}

// commitLocked closes the commit window: everything staged since the last
// commit goes to the store as one PutBatch — a single fsync on the log
// store. Its error is the caller's to report; the LogStore fails stop, so
// after one failed commit every later one fails too. Every entry point
// that changes state commits, so this is also where waiters wake.
func (sg *segment) commitLocked() error {
	sg.wakeLocked()
	ops := sg.dirty
	sg.dirty = nil
	if len(ops) == 0 {
		return nil
	}
	if err := sg.srv.st.PutBatch(ops); err != nil {
		return derr.Wrap(derr.CodeInternal, "core.commit", err)
	}
	return nil
}

func newSegment(srv *Server, id SegID) *segment {
	return &segment{
		srv:      srv,
		id:       id,
		params:   DefaultParams(),
		branches: version.NewLog(),
		majors:   make(map[uint64]*majorState),
		local:    make(map[uint64]*localReplica),
	}
}

// readyLocked reports whether this member may serve or originate operations:
// it has a live group handle and is not inside the post-recovery grace
// window during which a recreated group's state may still be obsolete.
func (sg *segment) readyLocked() bool {
	return sg.group != nil && time.Now().After(sg.graceUntil)
}

// currentMajorLocked selects the major used for unqualified access: "the
// most recent available version" (§3.5) — the major with the largest
// subversion among those with a reachable replica, breaking ties toward the
// larger major number. Falls back to any known major if none is reachable.
func (sg *segment) currentMajorLocked() uint64 {
	var best uint64
	var bestPair version.Pair
	pick := func(onlyAvailable bool) {
		for m, ms := range sg.majors {
			if onlyAvailable && ms.availableReplicas(sg.view) == 0 {
				continue
			}
			if best == 0 || ms.pair.Sub > bestPair.Sub ||
				(ms.pair.Sub == bestPair.Sub && m > best) {
				best, bestPair = m, ms.pair
			}
		}
	}
	pick(true)
	if best == 0 {
		pick(false)
	}
	return best
}

// ----------------------------------------------------------- application --

// applyLocked executes one delivered cast against the state machine. It is
// called on the group delivery goroutine in identical order at every member,
// so every state transition here must be a deterministic function of
// (current state, from, msg).
func (sg *segment) applyLocked(from simnet.NodeID, m *castMsg) *castReply {
	if sg.deleted && m.Op != opDeleteSeg {
		return replyFail(derr.CodeDeleted, "deleted")
	}
	switch m.Op {
	case opUpdate:
		return sg.applyUpdate(from, m)
	case opMarkStable:
		return sg.applyMarkStable(from, m)
	case opRequestReplica:
		return sg.applyRequestReplica(from, m)
	case opBeginTransfer:
		return sg.applyBeginTransfer(from, m)
	case opReplicaReady:
		return sg.applyReplicaReady(from, m)
	case opAbortTransfer:
		return sg.applyAbortTransfer(from, m)
	case opDeleteReplica:
		return sg.applyDeleteReplica(from, m)
	case opDeleteMajor:
		return sg.applyDeleteMajor(from, m)
	case opDeleteSeg:
		return sg.applyDeleteSeg(from, m)
	case opSetParams:
		return sg.applySetParams(from, m)
	case opReconcile:
		return sg.applyReconcile(from, m)
	case opForceStable:
		return sg.applyForceStable(from, m)
	case opInquiry:
		return sg.applyInquiry(from, m)
	case opTokenUpdate:
		return sg.applyTokenUpdate(from, m)
	case opReadToken:
		return sg.applyReadToken(from, m)
	default:
		return replyFail(derr.CodeInvalid, fmt.Sprintf("unknown op %d", m.Op))
	}
}

// tokenDisabledLocked implements §4's "medium" write availability on the
// holder side: "a token becomes disabled if fewer than the majority [of the
// replicas] is available." Without this, a holder cut off with a minority
// of the replicas would keep writing while the majority side regenerates a
// token, guaranteeing the fork that "medium" exists to prevent. The view is
// virtually synchronous group state, so every member evaluates this
// identically.
//
// Unlike token *generation* (§3.5's conservative max(min level, upper
// bound), applied in applyTokenRequest), the holder counts against the
// group-agreed replica set itself: all replica creation goes through the
// holder, so the set is exact, and a newly created file that has not yet
// grown to its minimum replica level stays writable (its replicas are
// generated by the very updates this check gates).
// A tie (exactly half the replicas reachable) leaves the token enabled:
// token generation elsewhere needs a *strict* majority (applyTokenRequest),
// so at most one side of any split can ever proceed — the holder wins ties.
// This also keeps a 2-replica file writable when its other replica crashes.
func (sg *segment) tokenDisabledLocked(ms *majorState) bool {
	if sg.params.Avail != AvailMedium {
		return false
	}
	total := len(ms.replicas)
	if total == 0 {
		return false
	}
	return 2*ms.availableReplicas(sg.view) < total
}

// resolveUpdateMajor picks the major an update applies to. A plain update
// names it directly in Major. A batch-follower update — one riding the same
// batched cast as an opTokenUpdate (see Server.writeBatchOnce) — names the
// pre-cast major in Major and the proposed fork major in NewMajor; whichever
// one the token op actually granted (a normal pass keeps Major, token
// regeneration created NewMajor) is the one whose holder is now the origin.
// The token op executed earlier in the same total-order slot, so every
// member resolves identically.
func (sg *segment) resolveUpdateMajor(from simnet.NodeID, m *castMsg) (uint64, *majorState) {
	if ms := sg.majors[m.Major]; ms != nil && (m.NewMajor == 0 || ms.holder == from) {
		return m.Major, ms
	}
	if m.NewMajor != 0 {
		if ms := sg.majors[m.NewMajor]; ms != nil && ms.holder == from {
			return m.NewMajor, ms
		}
	}
	return m.Major, sg.majors[m.Major]
}

func (sg *segment) applyUpdate(from simnet.NodeID, m *castMsg) *castReply {
	major, ms := sg.resolveUpdateMajor(from, m)
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if ms.transferring {
		return replyFail(derr.CodeBusy, "busy")
	}
	if from != ms.holder {
		// A stale holder's update sequenced after the token moved.
		return replyFail(derr.CodeBusy, "not holder")
	}
	if sg.tokenDisabledLocked(ms) {
		return replyFail(derr.CodeWriteUnavailable, "write unavailable")
	}
	if !m.Expect.IsZero() && ms.pair != m.Expect {
		return &castReply{Code: uint16(derr.CodeVersionConflict), Err: "conflict", Pair: ms.pair}
	}
	// A delta applies only to the base it was computed against: a local
	// replica not at the pre-update pair (it missed an update) is dropped,
	// never relabelled as current.
	rep := sg.local[major]
	if rep != nil && rep.pair != ms.pair {
		delete(sg.local, major)
		sg.srv.deleteReplicaData(sg, major)
		sg.srv.stats.staleDropped.Add(1)
		rep = nil
	}
	hadReaders := ms.revokeReadersLocked()
	sg.epoch++
	sg.readDenied = false
	ms.pair = ms.pair.Next()
	// Size evolves deterministically even at members without a replica.
	end := m.Off + int64(len(m.Data))
	if m.Truncate {
		ms.size = end
	} else if end > ms.size {
		ms.size = end
	}
	if rep != nil {
		rep.data = applyData(rep.data, m.Off, m.Data, m.Truncate)
		rep.pair = ms.pair
		sg.srv.persistReplica(sg, major, rep)
	}
	sg.lastWrite = time.Now()
	sg.srv.persistMeta(sg)
	return &castReply{
		OK: true, IsReplica: rep != nil, Pair: ms.pair, Size: ms.size,
		Major: major, HadReaders: hadReaders,
	}
}

// applyData performs the §5.1 write semantics on a byte array.
func applyData(data []byte, off int64, payload []byte, truncate bool) []byte {
	end := off + int64(len(payload))
	if truncate {
		out := make([]byte, end)
		copy(out, data)
		copy(out[off:], payload)
		return out
	}
	if end > int64(len(data)) {
		grown := make([]byte, end)
		copy(grown, data)
		data = grown
	}
	copy(data[off:end], payload)
	return data
}

func (sg *segment) applyMarkStable(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if from != ms.holder {
		return replyFail(derr.CodeBusy, "not holder")
	}
	ms.unstable = false
	if rep := sg.local[m.Major]; rep != nil {
		rep.stable = true
		sg.srv.persistReplica(sg, m.Major, rep)
	}
	sg.srv.persistMeta(sg)
	return &castReply{OK: true, Pair: ms.pair}
}

// applyForceStable implements §3.6's failure path: a reader that cannot
// reach the token holder forces the most up-to-date replica stable, and all
// obsolete replicas are destroyed.
func (sg *segment) applyForceStable(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	ms.unstable = false
	ms.pair = m.Pair
	ms.revokeReadersLocked()
	sg.epoch++
	if rep := sg.local[m.Major]; rep != nil {
		if rep.pair != m.Pair {
			// Obsolete or inconsistent replica: destroy it.
			delete(sg.local, m.Major)
			ms.dropReplica(sg.srv.id)
			sg.srv.deleteReplicaData(sg, m.Major)
		} else {
			rep.stable = true
			sg.srv.persistReplica(sg, m.Major, rep)
		}
	}
	// Drop replica records for members that reported obsolete state.
	for _, n := range m.Targets() {
		ms.dropReplica(n)
	}
	sg.srv.persistMeta(sg)
	return &castReply{OK: true, Pair: ms.pair}
}

// applyTokenRequest is the token phase of applyTokenUpdate (§3.3, §3.5): a
// held token is granted trivially, a reachable holder's is passed, and an
// unreachable holder's is regenerated under a new major if the write
// availability level allows.
func (sg *segment) applyTokenRequest(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if ms.transferring {
		return &castReply{Outcome: tokBusy, Major: m.Major, Pair: ms.pair}
	}
	if ms.holder == from {
		return &castReply{OK: true, Outcome: tokGranted, Major: m.Major, Pair: ms.pair}
	}
	if ms.holder != "" && sg.view.Contains(ms.holder) {
		// Normal token pass: the total order of this cast is the transfer
		// point; the old holder's earlier updates were sequenced before it.
		ms.holder = from
		sg.srv.persistMeta(sg)
		return &castReply{OK: true, Outcome: tokGranted, Major: m.Major, Pair: ms.pair}
	}

	// Token holder unreachable: token generation, constrained by the write
	// availability level (§3.5, §4). The requester must hold the data it
	// is forking from ("replicas corresponding to the new token are
	// generated by copying the original replica"): a dataless fork would
	// be unreadable yet still supersede its ancestor on merge.
	if !m.HasData {
		return &castReply{Outcome: tokUnavailable, Major: m.Major, Pair: ms.pair}
	}
	switch sg.params.Avail {
	case AvailLow:
		return &castReply{Outcome: tokUnavailable, Major: m.Major, Pair: ms.pair}
	case AvailMedium:
		total := len(ms.replicas)
		if sg.params.MinReplicas > total {
			total = sg.params.MinReplicas
		}
		if 2*ms.availableReplicas(sg.view) <= total {
			return &castReply{Outcome: tokUnavailable, Major: m.Major, Pair: ms.pair}
		}
	case AvailHigh:
		// Always allowed.
	}
	newMajor := m.NewMajor
	if newMajor == 0 || sg.majors[newMajor] != nil {
		return replyFail(derr.CodeBusy, "bad proposed major")
	}
	if err := sg.branches.Add(version.Branch{
		NewMajor: newMajor, FromMajor: m.Major, FromSub: ms.pair.Sub,
	}); err != nil {
		return replyFail(derr.CodeInternal, err.Error())
	}
	nms := newMajorState(newMajor)
	nms.holder = from
	nms.pair = version.Pair{Major: newMajor, Sub: ms.pair.Sub}
	nms.size = ms.size
	// The requester holds the data (HasData); replicas reachable in this
	// view convert too: under total order they are all at the branch pair,
	// so their data is already correct (§3.5: "file data is drawn from the
	// existing available replica").
	nms.addReplica(from)
	for r := range ms.replicas {
		if sg.view.Contains(r) {
			nms.addReplica(r)
		}
	}
	// Only a copy at the branch pair is cloned, never a stale one; its
	// member stays listed, and the phantom-replica path corrects that.
	if rep := sg.local[m.Major]; rep != nil && rep.pair == ms.pair && sg.view.Contains(sg.srv.id) {
		clone := &localReplica{
			data:   append([]byte(nil), rep.data...),
			pair:   nms.pair,
			stable: rep.stable,
		}
		sg.local[newMajor] = clone
		sg.srv.persistReplica(sg, newMajor, clone)
	}
	sg.majors[newMajor] = nms
	sg.srv.persistMeta(sg)
	return &castReply{OK: true, Outcome: tokGrantedNew, Major: newMajor, Pair: nms.pair}
}

// applyTokenUpdate is every write's first op, the first §3.3 optimization:
// a token request carrying the update it was acquired for. The token phase,
// the stability notification, and the update all execute in this cast's
// single total-order slot, so no member can observe the update without
// having processed the token pass and the unstable mark first — the
// correctness condition the paper's two- and three-round sequences establish
// with separate casts.
//
// A conditional update from a non-holder whose expectation already fails is
// refused before the token phase: the token stays put and nothing is marked
// unstable, so losing an optimistic race costs the holder nothing. ms.pair
// is group-agreed and a mismatch is permanent, so every member refuses alike
// and refusing ahead of a busy token is never wrong.
//
// A slot that neither moves the token nor begins an unstable stream answers
// tokHeld: only the update changed, so its writer needs no reply beyond
// its write safety level (§3.3: one round per update while the token is held).
func (sg *segment) applyTokenUpdate(from simnet.NodeID, m *castMsg) *castReply {
	held := false
	if ms := sg.majors[m.Major]; ms != nil {
		if ms.holder != from && !m.Expect.IsZero() && ms.pair != m.Expect {
			return &castReply{Code: uint16(derr.CodeVersionConflict), Err: "conflict", Pair: ms.pair}
		}
		held = ms.holder == from
	}
	tr := sg.applyTokenRequest(from, m)
	if !tr.OK {
		return tr
	}
	major := tr.Major
	ms := sg.majors[major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if sg.params.Stability && !ms.unstable {
		held = false
		ms.unstable = true
		if rep := sg.local[major]; rep != nil {
			rep.stable = false
			sg.srv.persistReplica(sg, major, rep)
		}
	}
	um := *m
	um.Major = major
	um.NewMajor = 0 // already resolved; the update must not re-resolve
	ur := sg.applyUpdate(from, &um)
	ur.Outcome = tr.Outcome
	if held {
		ur.Outcome = tokHeld
	}
	ur.Major = major
	return ur
}

// applyReadToken grants a shared read token (§4's read-token side of the
// concurrency spectrum). The grant's total-order slot is the certification
// point: the requester's replica has applied every update sequenced before
// it, so the replica is current and may serve reads locally — including
// while the file is unstable — until an update revokes the token.
//
// Two refusals keep the certificate honest. The requester must be a group-
// agreed replica holder (a dataless member has nothing current to serve).
// And, mirroring tokenDisabledLocked's majority rule, no token is granted
// while at most half of the version's replicas are reachable: a minority
// partition that certified its own replica would keep serving reads the
// majority side's writer can no longer invalidate.
func (sg *segment) applyReadToken(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if !ms.replicas[from] {
		return &castReply{Outcome: tokUnavailable, Major: m.Major, Pair: ms.pair}
	}
	if total := len(ms.replicas); total > 1 && 2*ms.availableReplicas(sg.view) <= total {
		return &castReply{Outcome: tokUnavailable, Major: m.Major, Pair: ms.pair}
	}
	ms.readers[from] = true
	return &castReply{OK: true, Outcome: tokGranted, Major: m.Major, Pair: ms.pair}
}

func (sg *segment) applyRequestReplica(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if ms.replicas[m.Target] {
		return &castReply{OK: true, Pair: ms.pair} // already a replica
	}
	// One transfer at a time: refuse visibly, so the requester waits for
	// the running one to end (tokBusy) and asks again.
	if ms.transferring {
		return &castReply{Code: uint16(derr.CodeBusy), Err: "transfer running", Outcome: tokBusy}
	}
	if ms.holder == "" || !sg.view.Contains(ms.holder) {
		return replyFail(derr.CodeBusy, "holder unavailable")
	}
	// Only the holder acts (it coordinates the transfer); everyone replies.
	if ms.holder == sg.srv.id {
		go sg.srv.runTransfer(context.Background(), sg, m.Major, m.Target)
	}
	return &castReply{OK: true, Pair: ms.pair}
}

func (sg *segment) applyBeginTransfer(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	if from != ms.holder {
		return replyFail(derr.CodeBusy, "not holder")
	}
	if ms.transferring {
		return replyFail(derr.CodeBusy, "busy")
	}
	ms.transferring = true
	ms.transferTo = m.Target
	// The target pulls the data outside the group (blast transfer) and then
	// casts opReplicaReady.
	if m.Target == sg.srv.id {
		go sg.srv.fetchReplica(sg, m.Major, m.Source)
	}
	return &castReply{OK: true, Pair: ms.pair}
}

func (sg *segment) applyReplicaReady(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	ms.transferring, ms.transferTo = false, ""
	if m.Pair == ms.pair {
		ms.addReplica(from)
	}
	sg.srv.persistMeta(sg)
	return &castReply{OK: true, Pair: ms.pair}
}

func (sg *segment) applyAbortTransfer(from simnet.NodeID, m *castMsg) *castReply {
	if ms := sg.majors[m.Major]; ms != nil {
		ms.transferring, ms.transferTo = false, ""
	}
	return &castReply{OK: true}
}

func (sg *segment) applyDeleteReplica(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	ms.dropReplica(m.Target)
	delete(ms.readers, m.Target) // a read token rides the replica it covers
	if m.Target == sg.srv.id {
		delete(sg.local, m.Major)
		sg.srv.deleteReplicaData(sg, m.Major)
	}
	sg.srv.persistMeta(sg)
	return &castReply{OK: true, Pair: ms.pair}
}

func (sg *segment) applyDeleteMajor(from simnet.NodeID, m *castMsg) *castReply {
	if sg.majors[m.Major] == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	delete(sg.majors, m.Major)
	sg.epoch++ // the current version may change; cached reads must revalidate
	if _, ok := sg.local[m.Major]; ok {
		delete(sg.local, m.Major)
		sg.srv.deleteReplicaData(sg, m.Major)
	}
	sg.srv.persistMeta(sg)
	return &castReply{OK: true}
}

func (sg *segment) applyDeleteSeg(from simnet.NodeID, m *castMsg) *castReply {
	sg.deleted = true
	for major := range sg.local {
		sg.srv.deleteReplicaData(sg, major)
	}
	sg.local = make(map[uint64]*localReplica)
	sg.majors = make(map[uint64]*majorState)
	sg.srv.deleteMeta(sg)
	go sg.srv.forgetSegment(sg.id)
	return &castReply{OK: true}
}

func (sg *segment) applySetParams(from simnet.NodeID, m *castMsg) *castReply {
	sg.params = m.Params
	sg.srv.persistMeta(sg)
	return &castReply{OK: true}
}

func (sg *segment) applyInquiry(from simnet.NodeID, m *castMsg) *castReply {
	ms := sg.majors[m.Major]
	if ms == nil {
		return replyFail(derr.CodeGone, "no such version")
	}
	rep := sg.local[m.Major]
	r := &castReply{OK: true, Pair: ms.pair, Size: ms.size}
	if rep != nil {
		r.IsReplica = true
		r.Pair = rep.pair
		r.Stable = rep.stable
	}
	return r
}

func (sg *segment) applyReconcile(from simnet.NodeID, m *castMsg) *castReply {
	var ss segSnapshot
	if err := wire.Unmarshal(m.Snapshot, &ss); err != nil {
		return replyFail(derr.CodeInternal, err.Error())
	}
	sg.mergeSnapshotLocked(&ss, false)
	sg.srv.persistMeta(sg)
	return &castReply{OK: true}
}

// Targets decodes the extra node list carried by opForceStable in Data.
func (m *castMsg) Targets() []simnet.NodeID {
	if len(m.Data) == 0 {
		return nil
	}
	d := wire.NewDecoder(m.Data)
	ss := d.StringSlice()
	out := make([]simnet.NodeID, len(ss))
	for i, s := range ss {
		out[i] = simnet.NodeID(s)
	}
	return out
}

func encodeTargets(ids []simnet.NodeID) []byte {
	ss := make([]string, len(ids))
	for i, id := range ids {
		ss[i] = string(id)
	}
	e := wire.NewEncoder(nil)
	e.StringSlice(ss)
	return e.Bytes()
}

// ------------------------------------------------------ snapshot / merge --

// snapshotLocked serializes the group metadata (not replica data).
func (sg *segment) snapshotLocked() *segSnapshot {
	ss := &segSnapshot{
		Params:   sg.params,
		Branches: sg.branches.Snapshot(),
		Deleted:  sg.deleted,
		Epoch:    sg.epoch,
	}
	for _, ms := range sg.majors {
		ss.Majors = append(ss.Majors, majorSnap{
			Major:        ms.major,
			Holder:       ms.holder,
			Pair:         ms.pair,
			Size:         ms.size,
			Unstable:     ms.unstable,
			Transferring: ms.transferring,
			TransferTo:   ms.transferTo,
			Replicas:     ms.replicaList(),
		})
	}
	return ss
}

// installSnapshotLocked replaces metadata wholesale (fresh joiner).
func (sg *segment) installSnapshotLocked(ss *segSnapshot) {
	sg.params = ss.Params
	sg.branches = version.NewLog()
	_ = sg.branches.Merge(ss.Branches)
	sg.deleted = ss.Deleted
	if ss.Epoch > sg.epoch {
		sg.epoch = ss.Epoch
	}
	sg.majors = make(map[uint64]*majorState, len(ss.Majors))
	for i := range ss.Majors {
		im := &ss.Majors[i]
		ms := newMajorState(im.Major)
		ms.holder = im.Holder
		ms.pair = im.Pair
		ms.size = im.Size
		ms.unstable = im.Unstable
		ms.transferring = im.Transferring
		ms.transferTo = im.TransferTo
		for _, r := range im.Replicas {
			ms.addReplica(r)
		}
		sg.majors[im.Major] = ms
	}
}

// mergeSnapshotLocked reconciles a divergent side's metadata into ours
// (§3.6). adoptParams selects whether the incoming parameters win (true when
// we are the losing side installing the winner's snapshot).
func (sg *segment) mergeSnapshotLocked(ss *segSnapshot, adoptParams bool) {
	if adoptParams {
		sg.params = ss.Params
	}
	_ = sg.branches.Merge(ss.Branches)
	if ss.Deleted {
		sg.deleted = true
	}
	// Merged state may differ from either side's pre-merge state, so the
	// lease epoch jumps past both sides' maxima: every client cache entry
	// stamped on either side of the partition is invalidated.
	if ss.Epoch > sg.epoch {
		sg.epoch = ss.Epoch
	}
	sg.epoch++
	for i := range ss.Majors {
		im := &ss.Majors[i]
		ms := sg.majors[im.Major]
		if ms == nil {
			ms = newMajorState(im.Major)
			ms.holder = im.Holder
			ms.pair = im.Pair
			ms.size = im.Size
			ms.unstable = im.Unstable
			sg.majors[im.Major] = ms
		} else {
			// Same major on both sides: only the side holding the token can
			// have advanced it, so the larger subversion wins wholesale.
			if im.Pair.Sub > ms.pair.Sub {
				ms.pair = im.Pair
				ms.size = im.Size
				ms.holder = im.Holder
				ms.unstable = im.Unstable
			}
		}
		for _, r := range im.Replicas {
			ms.addReplica(r)
		}
	}

	// §3.6 "Token Crash": a version that is a pure ancestor of a branch
	// taken at its exact current pair is obsolete — the descendant saw every
	// one of its updates — so it and its replicas are destroyed.
	for major, ms := range sg.majors {
		for other := range sg.majors {
			if other == major {
				continue
			}
			if sg.branchedExactlyAtLocked(major, ms.pair, other) {
				delete(sg.majors, major)
				if _, ok := sg.local[major]; ok {
					delete(sg.local, major)
					sg.srv.deleteReplicaData(sg, major)
				}
				break
			}
		}
	}

	// Remaining pairwise-incomparable versions are genuine conflicts that
	// the user must resolve; log them (§3.6 "Partition").
	majors := make([]*majorState, 0, len(sg.majors))
	for _, ms := range sg.majors {
		majors = append(majors, ms)
	}
	for i := 0; i < len(majors); i++ {
		for j := i + 1; j < len(majors); j++ {
			a, b := majors[i], majors[j]
			if a.major > b.major {
				a, b = b, a
			}
			if sg.branches.Compare(a.pair, b.pair) == version.Incomparable {
				sg.srv.recordConflict(Conflict{
					Seg:    sg.id,
					MajorA: a.major, PairA: a.pair,
					MajorB: b.major, PairB: b.pair,
					When: time.Now(),
				})
			}
		}
	}

	// Schedule data fixups: a local replica whose pair is now a strict
	// ancestor of the agreed pair missed updates while partitioned; §3.6
	// ("Non-token Replica Crash") destroys it, and the holder's replica
	// maintenance will regenerate as needed. We instead refetch in the
	// background, which is the same outcome without losing the replica slot.
	for major, rep := range sg.local {
		ms := sg.majors[major]
		if ms == nil {
			continue
		}
		if rep.pair != ms.pair && sg.branches.Compare(rep.pair, ms.pair) == version.AncestorOf {
			go sg.srv.refreshReplica(sg, major)
		}
	}
}

// branchedExactlyAtLocked reports whether `other` branched off `major` at
// exactly pair — i.e. major has no updates the descendant lacks.
func (sg *segment) branchedExactlyAtLocked(major uint64, pair version.Pair, other uint64) bool {
	snap := sg.branches.Snapshot()
	d := wire.NewDecoder(snap)
	n := int(d.Uint32())
	for i := 0; i < n; i++ {
		newMajor := d.Uint64()
		fromMajor := d.Uint64()
		fromSub := d.Uint64()
		if d.Err() != nil {
			return false
		}
		if newMajor == other && fromMajor == major && fromSub == pair.Sub && pair.Major == major {
			return true
		}
	}
	return false
}
