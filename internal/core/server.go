package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derr"
	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/version"
	"repro/internal/wire"
)

// Store bucket names (§3.5 Local Non-volatile Storage).
const (
	bucketMeta = "meta" // per-segment metadata: params, majors, branches
	bucketData = "data" // per-(segment,major) replica data
)

// Options tunes a segment server. Zero values select defaults suited to
// in-process simulation.
type Options struct {
	// StabilityDelay is the "short period of no write activity" after which
	// the token holder marks replicas stable again (§3.4). Default 150ms.
	StabilityDelay time.Duration
	// TransferChunk is the blast-transfer chunk size. Default 256 KiB.
	TransferChunk int
	// OpTimeout bounds internal protocol rounds. Default 5s.
	OpTimeout time.Duration
	// RetryDelay spaces retries of ErrBusy conditions. Default 15ms.
	RetryDelay time.Duration
	// JoinWait bounds the group lookup when opening a segment this server
	// has never seen. Default 1s.
	JoinWait time.Duration
	// OnConflict, if set, is invoked whenever incomparable versions are
	// detected (the envelope logs them to the well-known conflict file).
	OnConflict func(Conflict)
	// Piggyback enables the first §3.3 optimization the paper describes but
	// leaves unimplemented: "broadcast an update in the same message with a
	// token request; replica holders execute those updates upon receiving
	// the corresponding token pass." With it on, a write from a non-holder
	// costs one communication round instead of two (three when stability
	// notification would otherwise add its own round: the combined cast also
	// marks replicas unstable, which is safe because every member processes
	// the notification and the update atomically in the same total-order
	// slot).
	Piggyback bool
	// ForwardSingles enables the second §3.3 optimization: "pass an update
	// to the current token holder instead of requesting the token if it is
	// likely that there will be only one update; for example, a small file
	// that is overwritten in a single update." Writes that overwrite the
	// whole segment (offset 0, truncate) and are at most ForwardMax bytes
	// are sent to the holder over the direct channel, leaving the token
	// where it is. Callers can also request forwarding explicitly per write
	// with WriteReq.ViaHolder.
	ForwardSingles bool
	// ForwardMax bounds the size of writes the ForwardSingles heuristic
	// forwards. Default 8 KiB.
	ForwardMax int
	// NoReadTokens disables shared read tokens (§4's read-side concurrency
	// control). By default a replica whose reads of an unstable file would
	// forward to the token holder instead acquires a shared read token with
	// one cast and then serves every subsequent read from its own replica
	// until a write revokes the token; writers collect revocation
	// acknowledgements before returning, preserving one-copy semantics. Set
	// this to restore the paper's forward-every-read behavior (the A5
	// ablation baseline).
	NoReadTokens bool
	// CoalesceWrites routes concurrent writes to the same segment through a
	// per-segment op queue that packs a whole run of queued updates into one
	// batched total-order cast (isis.Group.CastBatch): N queued writes cost
	// one communication round instead of N. This extends the §3.3 piggyback
	// optimization from "the update rides the token request" to "any run of
	// same-holder updates rides one cast".
	CoalesceWrites bool
	// BatchMax bounds the number of updates packed into one batched cast.
	// Default 64.
	BatchMax int
}

func (o *Options) fill() {
	if o.StabilityDelay <= 0 {
		o.StabilityDelay = 150 * time.Millisecond
	}
	if o.TransferChunk <= 0 {
		o.TransferChunk = 256 << 10
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 5 * time.Second
	}
	if o.RetryDelay <= 0 {
		o.RetryDelay = 15 * time.Millisecond
	}
	if o.JoinWait <= 0 {
		o.JoinWait = time.Second
	}
	if o.ForwardMax <= 0 {
		o.ForwardMax = 8 << 10
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 64
	}
}

// Server is the segment server on one node (§5.1). It owns this node's
// replicas, its memberships in file groups, and the direct transfer channel.
type Server struct {
	id       simnet.NodeID
	proc     *isis.Process
	dtr      simnet.Transport
	st       store.Store
	opts     Options
	majAlloc *version.Allocator
	segAlloc *version.Allocator

	// tab is the sharded segment table: per-shard locks keep unrelated
	// segments from contending on one server-wide mutex.
	tab *segTable

	stateMu   sync.Mutex // guards conflicts, confSeen
	conflicts []Conflict
	confSeen  map[string]bool
	closed    atomic.Bool

	stats struct {
		readsLocal     atomic.Uint64
		readsForwarded atomic.Uint64
		tokenCasts     atomic.Uint64
		xferBytesOut   atomic.Uint64
		xferBytesIn    atomic.Uint64
		xferUnchanged  atomic.Uint64
	}

	reqID   atomic.Uint64
	pending sync.Map // reqID -> chan *directMsg

	done chan struct{}
	wg   sync.WaitGroup
}

// NewServer starts a segment server. proc is this node's ISIS process,
// direct is the transfer channel (typically a Demux channel sharing the
// transport with ISIS), and st the non-volatile store. Any segments found in
// st are recovered: their file groups are rejoined with reconciliation, or
// recreated and probed for divergent instances.
func NewServer(proc *isis.Process, direct simnet.Transport, st store.Store, opts Options) *Server {
	opts.fill()
	s := &Server{
		id:       proc.ID(),
		proc:     proc,
		dtr:      direct,
		st:       st,
		opts:     opts,
		majAlloc: version.NewAllocator(string(proc.ID()) + "/major"),
		segAlloc: version.NewAllocator(string(proc.ID()) + "/seg"),
		tab:      newSegTable(),
		confSeen: make(map[string]bool),
		done:     make(chan struct{}),
	}
	s.wg.Add(1)
	go s.directLoop()
	s.recover()
	return s
}

// ID returns this server's node identity.
func (s *Server) ID() simnet.NodeID { return s.id }

// Close shuts the server down. The ISIS process and store are owned by the
// caller and are not closed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	close(s.done)
	for _, sg := range s.tab.snapshot() {
		sg.mu.Lock()
		if sg.stabTimer != nil {
			sg.stabTimer.Stop()
		}
		sg.mu.Unlock()
	}
	s.wg.Wait()
}

// Conflicts returns the version conflicts recorded on this server (§3.6).
func (s *Server) Conflicts() []Conflict {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	out := make([]Conflict, len(s.conflicts))
	copy(out, s.conflicts)
	return out
}

func (s *Server) recordConflict(c Conflict) {
	key := fmt.Sprintf("%d/%d/%d", c.Seg, c.MajorA, c.MajorB)
	s.stateMu.Lock()
	if s.confSeen[key] {
		s.stateMu.Unlock()
		return
	}
	s.confSeen[key] = true
	s.conflicts = append(s.conflicts, c)
	cb := s.opts.OnConflict
	s.stateMu.Unlock()
	if cb != nil {
		cb(c)
	}
}

// ----------------------------------------------------------- public API --

// Create allocates a new segment with the given parameters. This server
// becomes the initial token holder and sole replica (§5.1: "create ...
// returns a handle for a new segment of zero length").
func (s *Server) Create(ctx context.Context, params Params) (SegID, error) {
	return s.createSeg(ctx, SegID(s.segAlloc.Next()), params)
}

// CreateWithID creates a segment under a caller-chosen id. It exists for
// well-known segments (the cell's root directory); ordinary files must use
// Create, whose ids are globally unique. If another cell member may race the
// creation, call ProbeCell afterwards so duplicate instances merge.
func (s *Server) CreateWithID(ctx context.Context, id SegID, params Params) (SegID, error) {
	return s.createSeg(ctx, id, params)
}

// ProbeCell asks the segment's group to probe all cell peers for divergent
// instances of the same group (see isis.Group.ProbeTargets).
func (s *Server) ProbeCell(id SegID) {
	sg := s.tab.get(id)
	if sg == nil {
		return
	}
	sg.mu.Lock()
	grp := sg.group
	sg.mu.Unlock()
	if grp != nil {
		grp.ProbeTargets(s.proc.Peers())
	}
}

func (s *Server) createSeg(ctx context.Context, id SegID, params Params) (SegID, error) {
	sg := newSegment(s, id)
	sg.params = params
	ms := newMajorState(version.InitialMajor)
	ms.holder = s.id
	ms.pair = version.Initial()
	ms.addReplica(s.id)
	sg.majors[version.InitialMajor] = ms
	sg.local[version.InitialMajor] = &localReplica{pair: version.Initial(), stable: true}

	app := &segApp{sg: sg}
	grp, err := s.proc.Create(id.groupName(), app)
	if err != nil {
		return 0, err
	}
	sg.group = grp
	s.tab.put(id, sg)
	s.persistMeta(sg)
	s.persistReplica(sg, version.InitialMajor, sg.local[version.InitialMajor])
	return id, nil
}

// Delete removes the segment and every version of it on all servers.
func (s *Server) Delete(ctx context.Context, id SegID) error {
	return s.retry(ctx, func() error {
		sg, err := s.openSegment(ctx, id)
		if err != nil {
			return err
		}
		_, err = s.castOne(ctx, sg, &castMsg{Op: opDeleteSeg})
		if errors.Is(err, isis.ErrNotMember) {
			// Our own deletion tore the group down underneath the reply
			// collection — the delete was applied.
			return nil
		}
		return err
	})
}

// DeleteVersion removes one major version everywhere (§3.5 version control).
func (s *Server) DeleteVersion(ctx context.Context, id SegID, major uint64) error {
	return s.retry(ctx, func() error {
		sg, err := s.openSegment(ctx, id)
		if err != nil {
			return err
		}
		_, err = s.castOne(ctx, sg, &castMsg{Op: opDeleteMajor, Major: major})
		return err
	})
}

// SetParams changes the segment's semantic parameters (§4, §5.1 setparam).
func (s *Server) SetParams(ctx context.Context, id SegID, params Params) error {
	return s.retry(ctx, func() error {
		sg, err := s.openSegment(ctx, id)
		if err != nil {
			return err
		}
		_, err = s.castOne(ctx, sg, &castMsg{Op: opSetParams, Params: params})
		return err
	})
}

// GetParams reads the segment's current parameters.
func (s *Server) GetParams(ctx context.Context, id SegID) (Params, error) {
	sg, err := s.openSegment(ctx, id)
	if err != nil {
		return Params{}, err
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	return sg.params, nil
}

// Stat reports the segment's versions, replicas, token holders and
// parameters — the paper's "locate all replicas of a file" and "list all
// versions of a file" special commands.
func (s *Server) Stat(ctx context.Context, id SegID) (SegInfo, error) {
	sg, err := s.openSegment(ctx, id)
	if err != nil {
		return SegInfo{}, err
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	info := SegInfo{ID: id, Params: sg.params, Current: sg.currentMajorLocked()}
	majors := make([]uint64, 0, len(sg.majors))
	for m := range sg.majors {
		majors = append(majors, m)
	}
	sort.Slice(majors, func(i, j int) bool { return majors[i] < majors[j] })
	for _, m := range majors {
		ms := sg.majors[m]
		info.Versions = append(info.Versions, VersionInfo{
			Major:    m,
			Pair:     ms.pair,
			Holder:   ms.holder,
			Unstable: ms.unstable,
			Disabled: false,
			Replicas: ms.replicaList(),
			Size:     ms.size,
		})
	}
	return info, nil
}

// AddReplica forces creation of a replica on target (§3.1 method 3: "a user
// may request the token holder to create or delete a replica on a specific
// server with a special command").
func (s *Server) AddReplica(ctx context.Context, id SegID, major uint64, target simnet.NodeID) error {
	var sg *segment
	err := s.retry(ctx, func() error {
		var err error
		sg, err = s.openSegment(ctx, id)
		if err != nil {
			return err
		}
		if major == 0 {
			sg.mu.Lock()
			major = sg.currentMajorLocked()
			sg.mu.Unlock()
		}
		_, err = s.castOne(ctx, sg, &castMsg{Op: opRequestReplica, Major: major, Target: target})
		return err
	})
	if err != nil {
		return err
	}
	// Wait for the transfer to land.
	deadline := time.Now().Add(2 * s.opts.OpTimeout)
	for time.Now().Before(deadline) {
		sg.mu.Lock()
		ms := sg.majors[major]
		done := ms != nil && ms.replicas[target]
		sg.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return derr.FromContext(ctx, "core.addreplica")
		case <-time.After(s.opts.RetryDelay):
		}
	}
	return ErrBusy
}

// RemoveReplica deletes the replica held by target.
func (s *Server) RemoveReplica(ctx context.Context, id SegID, major uint64, target simnet.NodeID) error {
	return s.retry(ctx, func() error {
		sg, err := s.openSegment(ctx, id)
		if err != nil {
			return err
		}
		if major == 0 {
			sg.mu.Lock()
			major = sg.currentMajorLocked()
			sg.mu.Unlock()
		}
		_, err = s.castOne(ctx, sg, &castMsg{Op: opDeleteReplica, Major: major, Target: target})
		return err
	})
}

// Read returns up to n bytes at offset off of the given major version (0
// selects the current version), together with the version pair of the data
// — the §5.1 read that seeds an optimistic transaction. n < 0 reads to the
// end of the segment.
func (s *Server) Read(ctx context.Context, id SegID, major uint64, off, n int64) ([]byte, version.Pair, error) {
	var (
		data []byte
		pair version.Pair
	)
	err := s.retry(ctx, func() error {
		var err error
		data, pair, err = s.readOnce(ctx, id, major, off, n)
		return err
	})
	return data, pair, err
}

// Lease reports the segment's current lease epoch and whether a cache entry
// stamped with it may be reused. valid is false while the current version is
// unstable (a write stream is running; §3.4 forwards such reads to the
// holder, so nothing cacheable is being promised) or while this member is
// recovering. The call touches only group metadata — no replica data moves —
// which is what makes client-cache revalidation cheap.
func (s *Server) Lease(ctx context.Context, id SegID) (epoch uint64, valid bool, err error) {
	sg, err := s.openSegment(ctx, id)
	if err != nil {
		return 0, false, err
	}
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.deleted {
		return 0, false, ErrNotFound
	}
	epoch = sg.epoch
	valid = sg.readyLocked() && !sg.dissolved
	if ms := sg.majors[sg.currentMajorLocked()]; ms != nil {
		if ms.unstable && sg.params.Stability {
			valid = false
		}
	} else {
		valid = false
	}
	return epoch, valid, nil
}

// ReadStats returns cumulative counters describing how this server served
// reads (local replica vs forwarded) and how many read-token grant casts it
// issued.
func (s *Server) ReadStats() ReadStats {
	return ReadStats{
		Local:      s.stats.readsLocal.Load(),
		Forwarded:  s.stats.readsForwarded.Load(),
		TokenCasts: s.stats.tokenCasts.Load(),
	}
}

// TransferStats returns cumulative counters for replica data moved over the
// direct channel by blast transfers and stale-replica refreshes.
func (s *Server) TransferStats() TransferStats {
	return TransferStats{
		BytesOut:  s.stats.xferBytesOut.Load(),
		BytesIn:   s.stats.xferBytesIn.Load(),
		Unchanged: s.stats.xferUnchanged.Load(),
	}
}

// Write applies one update (§5.1). It returns the version pair of the
// segment after the write. With write safety 0 the write is asynchronous and
// the returned pair is zero. With Options.CoalesceWrites, concurrent writes
// to the same segment ride a shared batched cast (see wbatch.go).
func (s *Server) Write(ctx context.Context, id SegID, req WriteReq) (version.Pair, error) {
	var pair version.Pair
	once := func() error {
		var err error
		pair, err = s.writeOnce(ctx, id, req)
		return err
	}
	if s.opts.CoalesceWrites && coalescible(req) {
		once = func() error {
			var err error
			pair, err = s.writeCoalescedOnce(ctx, id, req)
			return err
		}
	}
	return pair, s.retry(ctx, once)
}

// retry re-runs fn while it reports a retryable condition (IsRetryable),
// spacing attempts by RetryDelay. When the context expires mid-retry the
// caller sees a typed Timeout wrapping the last attempt's error, so the
// transient cause stays visible (errors.Is still matches ErrBusy) while the
// code that crosses the RPC boundary says what actually ended the wait.
func (s *Server) retry(ctx context.Context, fn func() error) error {
	for {
		err := fn()
		if !IsRetryable(err) {
			return err
		}
		select {
		case <-ctx.Done():
			return derr.Wrap(derr.CodeDeadline, "core.retry", err)
		case <-time.After(s.opts.RetryDelay):
		}
	}
}

// castOne casts m into the segment's group and returns the first reply,
// translating state-machine rejections into errors.
func (s *Server) castOne(ctx context.Context, sg *segment, m *castMsg) (*castReply, error) {
	return s.castK(ctx, sg, m, 1)
}

// castAll casts m and waits for every available member's reply before
// returning the first one. Used where the protocol needs all members to
// have applied the cast before the caller proceeds (token passes).
func (s *Server) castAll(ctx context.Context, sg *segment, m *castMsg) (*castReply, error) {
	return s.castK(ctx, sg, m, isis.All)
}

func (s *Server) castK(ctx context.Context, sg *segment, m *castMsg, k int) (*castReply, error) {
	sg.mu.Lock()
	grp := sg.group
	dissolved := sg.dissolved
	sg.mu.Unlock()
	if grp == nil || dissolved {
		return nil, ErrBusy
	}
	cctx, cancel := context.WithTimeout(ctx, s.opts.OpTimeout)
	defer cancel()
	replies, err := grp.Cast(cctx, encodeCast(m), k)
	if err != nil {
		if errors.Is(err, isis.ErrDissolved) {
			return nil, ErrBusy
		}
		if cctx.Err() != nil {
			return nil, derr.Wrap(derr.CodeDeadline, "core.cast", err)
		}
		return nil, err
	}
	if len(replies) == 0 {
		return nil, ErrBusy
	}
	r, err := decodeReply(replies[0].Data)
	if err != nil {
		return nil, err
	}
	if r.failed() {
		return r, replyErr(r)
	}
	return r, nil
}

// replyErr converts a cast rejection into the caller-facing error. Known
// codes map to the canonical sentinels (so err == ErrVersionConflict style
// checks keep working); anything else surfaces as a typed derr carrying the
// code that crossed the wire.
func replyErr(r *castReply) error {
	switch derr.Code(r.Code) {
	case derr.CodeVersionConflict:
		return ErrVersionConflict
	case derr.CodeGone:
		return ErrNotFound
	case derr.CodeDeleted:
		return ErrDeleted
	case derr.CodeWriteUnavailable:
		return ErrWriteUnavailable
	case derr.CodeBusy:
		return ErrBusy
	case 0:
		// A legacy peer that set only the string; classify conservatively.
		return derr.Newf(derr.CodeInternal, "core: %s", r.Err)
	default:
		return derr.Newf(derr.Code(r.Code), "core: %s", r.Err)
	}
}

// encodeCast builds a cast payload in one exact-size allocation. The bytes
// are retained in the isis outbox for retransmission, so they must own
// their buffer — exact sizing (not pooling) is the steady-path win here.
func encodeCast(m *castMsg) []byte { return wire.MarshalSized(m) }

func decodeReply(data []byte) (*castReply, error) {
	r := new(castReply)
	if err := wire.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// ------------------------------------------------------------- open/join --

// openSegment returns the local segment state, joining the file group if
// this server has never seen the segment (the Figure 2 forwarding path: any
// server can serve any file).
func (s *Server) openSegment(ctx context.Context, id SegID) (*segment, error) {
	sh := s.tab.shard(id)
	for {
		if s.closed.Load() {
			return nil, ErrDeleted
		}
		sh.mu.Lock()
		if sg, ok := sh.segs[id]; ok {
			sh.mu.Unlock()
			return sg, nil
		}
		if ch, ok := sh.opening[id]; ok {
			sh.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return nil, derr.FromContext(ctx, "core.open")
			}
		}
		ch := make(chan struct{})
		sh.opening[id] = ch
		sh.mu.Unlock()

		sg, err := s.joinSegment(ctx, id)

		sh.mu.Lock()
		delete(sh.opening, id)
		if err == nil {
			sh.segs[id] = sg
		}
		sh.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, err
		}
		return sg, nil
	}
}

func (s *Server) joinSegment(ctx context.Context, id SegID) (*segment, error) {
	sg := newSegment(s, id)
	app := &segApp{sg: sg}
	jctx, cancel := context.WithTimeout(ctx, s.opts.JoinWait)
	defer cancel()
	grp, err := s.proc.Join(jctx, id.groupName(), app)
	if err != nil {
		return nil, ErrNotFound
	}
	sg.mu.Lock()
	sg.group = grp
	sg.mu.Unlock()
	return sg, nil
}

// forgetSegment drops local state after opDeleteSeg and leaves the group.
func (s *Server) forgetSegment(id SegID) {
	sg := s.tab.remove(id)
	if sg != nil {
		sg.mu.Lock()
		grp := sg.group
		sg.mu.Unlock()
		if grp != nil {
			_ = grp.Leave()
		}
	}
}

// ------------------------------------------------------------- recovery --

// recover reloads every segment in the store and rejoins its file group with
// reconciliation (§3.6: "when a server recovers from a crash, it contacts
// the token holder for each file ... during its recovery protocol").
func (s *Server) recover() {
	keys, err := s.st.Keys(bucketMeta)
	if err != nil {
		return
	}
	for _, key := range keys {
		id, ok := parseSegKey(key)
		if !ok {
			continue
		}
		raw, ok, err := s.st.Get(bucketMeta, key)
		if err != nil || !ok {
			continue
		}
		var ss segSnapshot
		if err := wire.Unmarshal(raw, &ss); err != nil {
			continue
		}
		sg := newSegment(s, id)
		sg.mu.Lock()
		sg.installSnapshotLocked(&ss)
		// Reload local replica data.
		for major := range sg.majors {
			if rep := s.loadReplica(id, major); rep != nil {
				sg.local[major] = rep
			}
		}
		sg.mu.Unlock()
		s.tab.put(id, sg)

		s.wg.Add(1)
		go func(sg *segment) {
			defer s.wg.Done()
			s.rejoinRecovered(sg)
		}(sg)
	}
}

// rejoinRecovered joins or recreates the file group for a recovered segment.
func (s *Server) rejoinRecovered(sg *segment) {
	app := &segApp{sg: sg}
	// Joining the live group reconciles our stale state before we serve
	// anything; retry a few times before concluding nobody else has it
	// (lookups can time out transiently while the cell is churning).
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.JoinWait)
		grp, err := s.proc.JoinReconcile(ctx, sg.id.groupName(), app, nil)
		cancel()
		if err == nil {
			sg.mu.Lock()
			sg.group = grp
			sg.mu.Unlock()
			return
		}
		select {
		case <-s.done:
			return
		case <-time.After(s.opts.RetryDelay):
		}
	}
	// Nobody else seems to have the group: recreate it from our
	// non-volatile state and probe the cell for competing recreations. Our
	// state may still be obsolete (§3.6: a recovering server must check
	// before trusting its replicas), so reads and writes stay gated until
	// either a probe-triggered merge reconciles us or a grace period passes
	// with no other instance appearing.
	grp, err := s.proc.Create(sg.id.groupName(), app)
	if err != nil {
		return
	}
	sg.mu.Lock()
	sg.group = grp
	sg.graceUntil = time.Now().Add(2 * s.opts.JoinWait)
	sg.mu.Unlock()
	grp.ProbeTargets(s.proc.Peers())
}

// --------------------------------------------------------- persistence --

func segKey(id SegID) string { return fmt.Sprintf("%016x", uint64(id)) }

func parseSegKey(key string) (SegID, bool) {
	var v uint64
	if _, err := fmt.Sscanf(key, "%016x", &v); err != nil {
		return 0, false
	}
	return SegID(v), true
}

func dataKey(id SegID, major uint64) string {
	return fmt.Sprintf("%016x/%016x", uint64(id), major)
}

func (s *Server) persistMeta(sg *segment) {
	// Callers hold sg.mu.
	s.stPut(sg, bucketMeta, segKey(sg.id), wire.MarshalSized(sg.snapshotLocked()))
}

func (s *Server) deleteMeta(sg *segment) {
	s.stDelete(sg, bucketMeta, segKey(sg.id))
}

func (s *Server) persistReplica(sg *segment, major uint64, rep *localReplica) {
	e := wire.NewEncoder(make([]byte, 0, rep.pair.SizeWire()+1+wire.SizeBytes32(rep.data)))
	rep.pair.MarshalWire(e)
	e.Bool(rep.stable)
	e.Bytes32(rep.data)
	s.stPut(sg, bucketData, dataKey(sg.id, major), e.Bytes())
}

// stPut routes a persistence write through the segment's group-commit stage
// when a batched cast is being applied, else commits it to the store alone.
func (s *Server) stPut(sg *segment, bucket, key string, val []byte) {
	op := store.Op{Bucket: bucket, Key: key, Val: val}
	if sg != nil && sg.stage(op) {
		return
	}
	_ = s.st.PutBatch([]store.Op{op})
}

func (s *Server) stDelete(sg *segment, bucket, key string) {
	op := store.Op{Bucket: bucket, Key: key, Delete: true}
	if sg != nil && sg.stage(op) {
		return
	}
	_ = s.st.PutBatch([]store.Op{op})
}

func (s *Server) loadReplica(id SegID, major uint64) *localReplica {
	raw, ok, err := s.st.Get(bucketData, dataKey(id, major))
	if err != nil || !ok {
		return nil
	}
	d := wire.NewDecoder(raw)
	rep := new(localReplica)
	if err := rep.pair.UnmarshalWire(d); err != nil {
		return nil
	}
	rep.stable = d.Bool()
	rep.data = d.Bytes32()
	if d.Err() != nil {
		return nil
	}
	return rep
}

func (s *Server) deleteReplicaData(sg *segment, major uint64) {
	s.stDelete(sg, bucketData, dataKey(sg.id, major))
}

// ------------------------------------------------------------ app glue --

// segApp adapts a segment to the isis.App interface.
type segApp struct {
	sg *segment
}

func (a *segApp) Deliver(from simnet.NodeID, payload []byte) []byte {
	var m castMsg
	if err := wire.Unmarshal(payload, &m); err != nil {
		return wire.MarshalSized(replyFail(derr.CodeInvalid, "bad message: "+err.Error()))
	}
	// The reply is retained by the isis layer (reply demux and possible
	// retransmission), so it owns an exact-size buffer.
	return wire.MarshalSized(a.sg.apply(from, &m))
}

// DeliverBatch applies a batched cast's sub-ops back to back and persists
// everything they dirtied as one Store.PutBatch: on a log-structured store
// the whole cast costs a single fsync (§3.5 group commit), and the flush
// happens before the replies — the origin's acks — are returned.
func (a *segApp) DeliverBatch(from simnet.NodeID, payloads [][]byte) [][]byte {
	sg := a.sg
	sg.beginCommit()
	outs := make([][]byte, len(payloads))
	for i, sp := range payloads {
		outs[i] = a.Deliver(from, sp)
	}
	if ops := sg.endCommit(); len(ops) > 0 {
		_ = sg.srv.st.PutBatch(ops)
	}
	return outs
}

func (a *segApp) ViewChange(v isis.View, reason isis.ViewReason) {
	sg := a.sg
	sg.mu.Lock()
	sg.view = v
	// Membership changed: every shared read token is invalidated, at every
	// member, in the same virtually synchronous event. A reader partitioned
	// into a minority loses its token the moment it installs its own shrunken
	// view, and the writer side stops counting it toward revocation
	// acknowledgements the moment it installs its — so a partitioned reader
	// can neither serve under a stale certificate nor block writers
	// (tokenDisabledLocked's majority rule then gates any re-grant).
	for _, ms := range sg.majors {
		ms.revokeReadersLocked()
	}
	sg.readDenied = false
	switch reason {
	case isis.ReasonDissolve:
		sg.dissolved = true
	case isis.ReasonMerge:
		sg.dissolved = false
		sg.graceUntil = time.Time{} // reconciled: safe to serve again
		// Broadcast our (already locally merged) metadata so the whole group
		// reconciles: divergent majors, replica sets and branch records all
		// propagate through one totally ordered cast.
		snap := wire.MarshalSized(sg.snapshotLocked())
		go sg.castReconcile(snap)
	default:
		if len(v.Members) > 0 {
			sg.dissolved = false
		}
	}
	sg.mu.Unlock()
}

func (a *segApp) Snapshot() []byte {
	a.sg.mu.Lock()
	defer a.sg.mu.Unlock()
	return wire.MarshalSized(a.sg.snapshotLocked())
}

func (a *segApp) Restore(snap []byte) {
	var ss segSnapshot
	if err := wire.Unmarshal(snap, &ss); err != nil {
		return
	}
	a.sg.mu.Lock()
	a.sg.installSnapshotLocked(&ss)
	a.sg.mu.Unlock()
}

func (a *segApp) Merge(snap []byte) {
	var ss segSnapshot
	if err := wire.Unmarshal(snap, &ss); err != nil {
		return
	}
	a.sg.mu.Lock()
	a.sg.mergeSnapshotLocked(&ss, true)
	a.sg.mu.Unlock()
}

// castReconcile pushes our metadata into the group after a merge, retrying
// until the cast is confirmed delivered: the other side's members only
// learn our divergent majors through this cast, so a lost reconcile would
// leave the group permanently split-brained about version metadata.
func (sg *segment) castReconcile(snap []byte) {
	for i := 0; i < 200; i++ {
		sg.mu.Lock()
		grp := sg.group
		sg.mu.Unlock()
		if grp != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := grp.Cast(ctx, wire.MarshalSized(&castMsg{Op: opReconcile, Snapshot: snap}), 1)
			cancel()
			if err == nil {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

var _ isis.App = (*segApp)(nil)
var _ isis.BatchApp = (*segApp)(nil)

// ensure interface satisfaction of wire types
var (
	_ wire.Marshaler   = (*castMsg)(nil)
	_ wire.Unmarshaler = (*castMsg)(nil)
	_ wire.Marshaler   = (*segSnapshot)(nil)
	_ wire.Unmarshaler = (*segSnapshot)(nil)
)
