package isis

import (
	"context"
	"sync"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// Process is one node's membership in the ISIS world. All Deceit group
// activity on a server runs through a single Process. Internally the
// Process runs one event loop goroutine that owns all group state; public
// methods post commands to the loop, and application callbacks run on
// per-group delivery goroutines.
type Process struct {
	tr  simnet.Transport
	opt Options

	localq chan func()
	done   chan struct{}
	wg     sync.WaitGroup

	mu        sync.Mutex
	peers     []simnet.NodeID
	lookups   map[uint64]chan []simnet.NodeID
	lookupSeq uint64
	closed    bool

	// Loop-owned state; never touched outside the event loop.
	groups   map[string]*gstate
	lastSeen map[simnet.NodeID]time.Time
	selfq    []*env // loopback messages, drained after each event
}

// NewProcess starts an ISIS process on the given transport. peers is the
// static cell membership used for group lookup (§2.2: cells are managed by
// a single administration, so a configured peer list is appropriate).
func NewProcess(tr simnet.Transport, peers []simnet.NodeID, opt Options) *Process {
	opt.fill()
	p := &Process{
		tr:       tr,
		opt:      opt,
		localq:   make(chan func(), 1024),
		done:     make(chan struct{}),
		peers:    append([]simnet.NodeID(nil), peers...),
		lookups:  make(map[uint64]chan []simnet.NodeID),
		groups:   make(map[string]*gstate),
		lastSeen: make(map[simnet.NodeID]time.Time),
	}
	p.wg.Add(1)
	go p.loop()
	return p
}

// ID returns this process's node identity.
func (p *Process) ID() simnet.NodeID { return p.tr.Local() }

// Peers returns the configured cell peer list.
func (p *Process) Peers() []simnet.NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]simnet.NodeID(nil), p.peers...)
}

// Close shuts the process down. Groups are abandoned without a leave
// protocol (as in a crash); co-members will detect the failure.
func (p *Process) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	p.wg.Wait()
	// Stop delivery goroutines after the loop has exited so no more
	// deliveries can be enqueued, and fail the casts still waiting for
	// replies, which can no longer arrive.
	for _, g := range p.groups {
		g.dq.stop()
		g.failCalls(ErrClosed)
	}
	_ = p.tr.Close()
}

// do posts f to the event loop. It reports false if the process is closed.
func (p *Process) do(f func()) bool {
	select {
	case p.localq <- f:
		return true
	case <-p.done:
		return false
	}
}

// doWait posts f and waits for it to run.
func (p *Process) doWait(f func()) bool {
	ch := make(chan struct{})
	ok := p.do(func() {
		f()
		close(ch)
	})
	if !ok {
		return false
	}
	select {
	case <-ch:
		return true
	case <-p.done:
		return false
	}
}

func (p *Process) logf(format string, args ...any) {
	if p.opt.Logger != nil {
		p.opt.Logger.Printf("[isis %s] "+format, append([]any{p.ID()}, args...)...)
	}
}

func (p *Process) loop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.opt.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case m, ok := <-p.tr.Recv():
			if !ok {
				return
			}
			p.handleRaw(m)
		case f := <-p.localq:
			f()
		case <-ticker.C:
			p.tick()
		case <-p.done:
			return
		}
		p.drainSelf()
	}
}

// sendEnv transmits an envelope, short-circuiting sends to self through the
// loopback queue (drained by the loop after the current event) to preserve
// the single-threaded state machine.
func (p *Process) sendEnv(to simnet.NodeID, m *env) {
	if to == p.ID() {
		p.selfq = append(p.selfq, m)
		return
	}
	_ = sendPooled(p.tr, to, m)
}

func (p *Process) drainSelf() {
	for len(p.selfq) > 0 {
		m := p.selfq[0]
		p.selfq = p.selfq[1:]
		p.handleEnv(p.ID(), m)
	}
}

func (p *Process) handleRaw(m simnet.Message) {
	e, err := decodeEnv(m.Data)
	if err != nil {
		p.logf("bad message from %s: %v", m.From, err)
		return
	}
	p.lastSeen[m.From] = time.Now()
	p.handleEnv(m.From, e)
}

func (p *Process) handleEnv(from simnet.NodeID, e *env) {
	switch e.Kind {
	case kHeartbeat:
		// lastSeen already updated.
	case kLookupReq:
		p.handleLookupReq(from, e)
	case kLookupResp:
		p.handleLookupResp(e)
	default:
		g := p.groups[e.Group]
		if g == nil {
			if e.Kind == kProbe {
				// We have no state for this group (e.g. we crashed and
				// restarted); tell the prober to stop asking.
				p.sendEnv(from, &env{Kind: kProbeGone, Group: e.Group})
			}
			return
		}
		g.handle(from, e)
	}
}

func (p *Process) handleLookupReq(from simnet.NodeID, e *env) {
	g := p.groups[e.Group]
	if g == nil || g.state != stMember {
		return
	}
	p.sendEnv(from, &env{
		Kind:    kLookupResp,
		Group:   e.Group,
		MsgID:   e.MsgID,
		Members: g.view.Clone().Members,
	})
}

func (p *Process) handleLookupResp(e *env) {
	p.mu.Lock()
	ch := p.lookups[e.MsgID]
	p.mu.Unlock()
	if ch != nil {
		select {
		case ch <- e.Members:
		default:
		}
	}
}

func (p *Process) registerLookup(name string, ch chan []simnet.NodeID) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lookupSeq++
	id := p.lookupSeq
	p.lookups[id] = ch
	return id
}

func (p *Process) unregisterLookup(id uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.lookups, id)
}

// tick runs periodic work: heartbeats, failure suspicion, retransmissions
// and partition probes.
func (p *Process) tick() {
	now := time.Now()

	// Heartbeat everyone we share a group with.
	targets := make(map[simnet.NodeID]bool)
	for _, g := range p.groups {
		if g.state != stMember {
			continue
		}
		for _, m := range g.view.Members {
			if m != p.ID() {
				targets[m] = true
			}
		}
	}
	// One pooled encode serves every heartbeat fan-out target; both
	// transports are done with the bytes when Send returns.
	hb := &env{Kind: kHeartbeat}
	e := wire.GetEncoder()
	hb.MarshalWire(e)
	for id := range targets {
		_ = p.tr.Send(id, e.Bytes())
	}
	wire.PutEncoder(e)

	// Suspect silent co-members.
	for id := range targets {
		seen, ok := p.lastSeen[id]
		if !ok {
			p.lastSeen[id] = now
			continue
		}
		if now.Sub(seen) > p.opt.SuspectTimeout {
			for _, g := range p.groups {
				if g.state == stMember && g.view.Contains(id) {
					g.suspect(id)
				}
			}
		}
	}

	// Per-group periodic work.
	for _, g := range p.groups {
		g.tick(now)
	}
}

// Create establishes a new single-member group with this process as its
// coordinator. The app immediately receives the initial view.
func (p *Process) Create(name string, app App) (*Group, error) {
	var err error
	ok := p.doWait(func() {
		if _, exists := p.groups[name]; exists {
			err = errGroupExists
			return
		}
		g := newGState(p, name, app)
		g.state = stMember
		g.view = View{ID: 1, Members: []simnet.NodeID{p.ID()}}
		g.nextSeq = 1
		g.acks = map[simnet.NodeID]uint64{p.ID(): 0}
		p.groups[name] = g
		v := g.view.Clone()
		g.dq.push(func() { app.ViewChange(v, ReasonJoin) })
	})
	if !ok {
		return nil, ErrClosed
	}
	if err != nil {
		return nil, err
	}
	return &Group{p: p, name: name}, nil
}

// Join locates the named group in the cell and joins it, installing the
// coordinator's state snapshot via app.Restore. It blocks until the join
// completes or ctx expires.
func (p *Process) Join(ctx context.Context, name string, app App) (*Group, error) {
	return p.join(ctx, name, app, false, nil)
}

// JoinReconcile joins a group while preserving local application state: the
// coordinator's snapshot is delivered through App.Merge instead of
// App.Restore. A recovering Deceit server uses this so that replicas and
// version branches it holds on disk survive reconciliation (§3.6). The hint,
// if non-empty, is tried before a cell-wide lookup.
func (p *Process) JoinReconcile(ctx context.Context, name string, app App, hint []simnet.NodeID) (*Group, error) {
	return p.join(ctx, name, app, true, hint)
}

func (p *Process) join(ctx context.Context, name string, app App, reconcile bool, hint []simnet.NodeID) (*Group, error) {
	// Register (or reuse, for rejoin) the group state in the joining state.
	var joinCh chan error
	var rejected bool
	ok := p.doWait(func() {
		g := p.groups[name]
		if g != nil && g.state == stMember {
			rejected = true
			return
		}
		if g == nil {
			g = newGState(p, name, app)
			p.groups[name] = g
		}
		g.state = stJoining
		g.reconcile = reconcile
		if g.joinDone == nil {
			g.joinDone = make(chan error, 1)
		}
		joinCh = g.joinDone
	})
	if !ok {
		return nil, ErrClosed
	}
	if rejected {
		return nil, errGroupExists
	}

	var lastErr error = ErrNoSuchGroup
	for ctx.Err() == nil {
		members := hint
		if len(members) == 0 {
			found, err := p.Lookup(ctx, name)
			if err != nil {
				lastErr = err
				break
			}
			members = found
		}
		hint = nil // only trust the hint once; re-lookup on retry
		if len(members) == 0 {
			continue
		}
		// Ask the coordinator first, then other members, to join us.
		flags := uint8(0)
		if reconcile {
			flags = flagReconcile
		}
		for _, target := range members {
			if target == p.ID() {
				continue
			}
			p.do(func() {
				p.sendEnv(target, &env{Kind: kJoinReq, Group: name, Flags: flags, Origin: p.ID()})
			})
			select {
			case err := <-joinCh:
				if err == nil {
					return &Group{p: p, name: name}, nil
				}
				lastErr = err
			case <-time.After(p.opt.RetransInterval * 6):
				lastErr = context.DeadlineExceeded
			case <-ctx.Done():
			case <-p.done:
				return nil, ErrClosed
			}
			if ctx.Err() != nil {
				break
			}
		}
	}
	// Clean up the placeholder unless a concurrent join completed.
	p.doWait(func() {
		if g := p.groups[name]; g != nil && g.state == stJoining {
			delete(p.groups, name)
			g.dq.stop()
		}
	})
	if ctx.Err() != nil && lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, lastErr
}

// rejoinAfterDissolve runs in its own goroutine when this process's side of
// a partitioned group lost the heal comparison (§3.6: the losing side's
// servers must reconcile with the surviving version). It retries until the
// process closes or the join succeeds.
func (p *Process) rejoinAfterDissolve(name string, app App, hint []simnet.NodeID) {
	for {
		select {
		case <-p.done:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*p.opt.RetransInterval)
		_, err := p.join(ctx, name, app, true, hint)
		cancel()
		if err == nil || err == errGroupExists || err == ErrClosed {
			return
		}
		hint = nil
		select {
		case <-p.done:
			return
		case <-time.After(p.opt.RetransInterval):
		}
	}
}
