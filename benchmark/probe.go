package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/envelope"
	"repro/internal/isis"
	"repro/internal/nfsproto"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// The depth probe issues the same op at successively deeper public entry
// points of server 0, from one sequential caller, so that a layer's self
// time is the difference between two adjacent depths.
const (
	depthAgent    = iota // agent.Agent method, cache off
	depthServer          // raw sunrpc.Client.Call of the NFS procedure
	depthEnvelope        // Server.Envelope() method
	depthCore            // Server.Core() method (data ops only)
	numDepths
)

var depthNames = [numDepths]string{"agent", "server", "envelope", "core"}

// Probe op kinds. write_hot rewrites one file back to back, so it stays
// unstable; write_cold writes a file idle past the stability delay.
const (
	probeRead = iota
	probeWriteHot
	probeWriteCold
	probeGetattr
	probeReaddir
	probeCreate // create + remove
	numProbeKinds
)

var probeKindNames = [numProbeKinds]string{"read", "write_hot", "write_cold", "getattr", "readdir", "create"}

const (
	probeFiles = 96 // cold-write rotation: 4 per round, each idle > settle before reuse
	countCalls = 32 // calls per counted batch
)

type probeFile struct {
	h         nfsproto.Handle
	seg       core.SegID
	lastWrite time.Time
}

type prober struct {
	c      *cell
	ctx    context.Context
	epoch  time.Time
	tr     *tracer
	ag     *agent.Agent   // server 0, cache off
	cached *agent.Agent   // server 0, cache on
	rpc    *sunrpc.Client // server 0
	env    *envelope.Envelope
	core   *core.Server
	dir    nfsproto.Handle
	files  []probeFile // [0] read target, [1] hot, the rest cold
	cold   int         // next cold file
	buf    []byte
	seq    uint64
	names  int

	lat        [numDepths][numProbeKinds][]time.Duration
	cachedRead []time.Duration // agent depth, cache on: a revalidation
	calls      int
	failed     int // timed calls that returned an error; they leave no sample
	firstErr   error
}

func newProber(ctx context.Context, c *cell, epoch time.Time, tr *tracer) (*prober, error) {
	p := &prober{
		c: c, ctx: ctx, epoch: epoch, tr: tr,
		env: c.servers[0].Envelope(), core: c.servers[0].Core(),
		buf: make([]byte, blockSize),
	}
	var err error
	if p.ag, err = c.mount(0, false); err != nil {
		return nil, err
	}
	if p.cached, err = c.mount(0, true); err != nil {
		return nil, err
	}
	if p.rpc, err = sunrpc.Dial(c.addrs[0]); err != nil {
		return nil, fmt.Errorf("probe dial: %w", err)
	}
	mode := newFileAttr
	mode.Mode = 0o755
	if p.dir, _, err = p.ag.Mkdir(p.ag.Root(), "probe", mode); err != nil {
		return nil, fmt.Errorf("probe mkdir: %w", err)
	}
	file := make([]byte, fileSize)
	var handles []nfsproto.Handle
	for i := 0; i < probeFiles; i++ {
		h, err := createFile(p.ag, p.dir, fmt.Sprintf("p%03d", i), file)
		if err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		seg, _, ok := envelope.UnpackHandle(h)
		if !ok {
			return nil, fmt.Errorf("probe: handle of p%03d does not unpack", i)
		}
		p.files = append(p.files, probeFile{h: h, seg: seg, lastWrite: time.Now()})
		handles = append(handles, h)
	}
	time.Sleep(settle)
	if _, err := c.placeReplicas(p.ag, handles); err != nil {
		return nil, err
	}
	p.cold = 2
	return p, nil
}

func (p *prober) close() {
	p.ag.Close()
	p.cached.Close()
	p.rpc.Close()
}

// nfsCall is the server depth: one raw RPC of an NFS procedure, failing on
// a non-OK status word (every NFS reply starts with one).
func (p *prober) nfsCall(proc uint32, args xdr.Marshaler) error {
	raw, err := p.rpc.Call(nfsproto.NFSProgram, nfsproto.NFSVersion, proc, xdr.Marshal(args))
	if err != nil {
		return err
	}
	d := xdr.NewDecoder(raw)
	if st := nfsproto.Status(d.Uint32()); d.Err() != nil || st != nfsproto.OK {
		return fmt.Errorf("nfs proc %d: status %v, %v", proc, st, d.Err())
	}
	return nil
}

func (p *prober) read(depth int, f *probeFile) error {
	switch depth {
	case depthAgent:
		_, err := p.ag.Read(f.h, 0, blockSize)
		return err
	case depthServer:
		return p.nfsCall(nfsproto.ProcRead, &nfsproto.ReadArgs{File: f.h, Count: blockSize})
	case depthEnvelope:
		_, _, err := p.env.Read(p.ctx, f.h, 0, blockSize)
		return err
	default:
		_, _, err := p.core.Read(p.ctx, f.seg, 0, envelopeHeader, blockSize)
		return err
	}
}

// envelopeHeader is where the envelope puts a file's first payload byte in
// its segment; a core-depth call must address the same bytes.
const envelopeHeader = 4096

func (p *prober) write(depth int, f *probeFile) error {
	p.seq++
	stampBlock(p.buf, 0, 0, 0, p.seq)
	var err error
	switch depth {
	case depthAgent:
		_, err = p.ag.Write(f.h, 0, p.buf)
	case depthServer:
		err = p.nfsCall(nfsproto.ProcWrite, &nfsproto.WriteArgs{File: f.h, Data: p.buf})
	case depthEnvelope:
		_, err = p.env.Write(p.ctx, f.h, 0, p.buf)
	default:
		_, err = p.core.Write(p.ctx, f.seg, core.WriteReq{Off: envelopeHeader, Data: p.buf})
	}
	f.lastWrite = time.Now()
	return err
}

func (p *prober) getattr(depth int, f *probeFile) error {
	switch depth {
	case depthAgent:
		_, err := p.ag.Getattr(f.h)
		return err
	case depthServer:
		return p.nfsCall(nfsproto.ProcGetattr, &f.h)
	default:
		_, err := p.env.Getattr(p.ctx, f.h)
		return err
	}
}

func (p *prober) readdir(depth int) error {
	switch depth {
	case depthAgent:
		_, err := p.ag.Readdir(p.dir)
		return err
	case depthServer:
		return p.nfsCall(nfsproto.ProcReaddir, &nfsproto.ReaddirArgs{Dir: p.dir, Count: 8192})
	default:
		_, err := p.env.Readdir(p.ctx, p.dir, 0, 8192)
		return err
	}
}

func (p *prober) create(depth int) error {
	p.names++
	name := fmt.Sprintf("n%d", p.names)
	where := nfsproto.DirOpArgs{Dir: p.dir, Name: name}
	switch depth {
	case depthAgent:
		if _, _, err := p.ag.Create(p.dir, name, newFileAttr); err != nil {
			return err
		}
		return p.ag.Remove(p.dir, name)
	case depthServer:
		if err := p.nfsCall(nfsproto.ProcCreate, &nfsproto.CreateArgs{Where: where, Attr: newFileAttr}); err != nil {
			return err
		}
		return p.nfsCall(nfsproto.ProcRemove, &where)
	default:
		if _, _, err := p.env.Create(p.ctx, p.dir, name, newFileAttr); err != nil {
			return err
		}
		return p.env.Remove(p.ctx, p.dir, name)
	}
}

// nextCold returns a file idle for at least settle, waiting if the rotation
// has come round too fast.
func (p *prober) nextCold() *probeFile {
	f := &p.files[p.cold]
	if p.cold++; p.cold == len(p.files) {
		p.cold = 2
	}
	if idle := time.Since(f.lastWrite); idle < settle {
		time.Sleep(settle - idle)
	}
	return f
}

// keepHot makes sure the hot file is unstable before a timed hot write.
func (p *prober) keepHot() error {
	hot := &p.files[1]
	if time.Since(hot.lastWrite) > settle/4 {
		return p.write(depthCore, hot)
	}
	return nil
}

// timed runs fn as one probe call of kind at depth. A call that fails
// leaves no sample: one timed-out call must not void the run, and run
// rejects a probe in which many did.
func (p *prober) timed(depth, kind int, fn func() error) {
	id := p.tr.begin()
	start := time.Since(p.epoch)
	err := fn()
	end := time.Since(p.epoch)
	p.calls++
	if err != nil {
		if p.failed++; p.firstErr == nil {
			p.firstErr = fmt.Errorf("probe %s.%s: %w", depthNames[depth], probeKindNames[kind], err)
		}
		return
	}
	p.tr.end(id, 0, id, depthNames[depth]+"."+probeKindNames[kind], start, end)
	p.lat[depth][kind] = append(p.lat[depth][kind], end-start)
}

// step issues one timed probe call of kind at depth.
func (p *prober) step(depth, kind int) error {
	var fn func() error
	switch kind {
	case probeRead:
		fn = func() error { return p.read(depth, &p.files[0]) }
	case probeWriteHot:
		if err := p.keepHot(); err != nil {
			return err
		}
		fn = func() error { return p.write(depth, &p.files[1]) }
	case probeWriteCold:
		f := p.nextCold()
		fn = func() error { return p.write(depth, f) }
	case probeGetattr:
		fn = func() error { return p.getattr(depth, &p.files[0]) }
	case probeReaddir:
		fn = func() error { return p.readdir(depth) }
	case probeCreate:
		fn = func() error { return p.create(depth) }
	}
	p.timed(depth, kind, fn)
	return nil
}

// rounds issues n calls of every kind at every depth, depths interleaved
// round-robin so that all see the same disk conditions.
func (p *prober) rounds(n int) error {
	cachedRead := func() error {
		_, err := p.cached.Read(p.files[0].h, 0, blockSize)
		return err
	}
	if err := cachedRead(); err != nil { // fills the cache entry
		return fmt.Errorf("probe cached read: %w", err)
	}
	for i := 0; i < n; i++ {
		for kind := 0; kind < numProbeKinds; kind++ {
			for depth := 0; depth < numDepths; depth++ {
				if depth == depthCore && kind > probeWriteCold {
					continue // the segment server has no such call
				}
				if err := p.step(depth, kind); err != nil {
					return err
				}
			}
		}
		start := time.Now()
		if err := cachedRead(); err != nil {
			return fmt.Errorf("probe cached read: %w", err)
		}
		p.cachedRead = append(p.cachedRead, time.Since(start))
	}
	return nil
}

// counted runs a batch of calls with nothing else going on, waits for the
// work they leave behind and records fsyncs and messages per call as
// name_fsyncs and name_msgs, the idle heartbeat rate taken out of the
// messages. A wait of settle takes in the stability marks the calls cause
// later; a short one leaves them out.
func (p *prober) counted(m metrics, name string, calls int, wait time.Duration, idlePerSec float64, fn func() error) error {
	before, start := p.c.netStore(), time.Now()
	for i := 0; i < calls; i++ {
		if err := fn(); err != nil {
			return fmt.Errorf("%s count: %w", name, err)
		}
	}
	time.Sleep(wait)
	d := p.c.netStore().sub(before)
	idle := idlePerSec * time.Since(start).Seconds()
	m.add(name+"_fsyncs", float64(d.fsyncs)/float64(calls), "count", calls)
	m.add(name+"_msgs", (float64(d.msgs)-idle)/float64(calls), "count", calls)
	return nil
}

// idleRate is the cell's message rate with no client running.
func idleRate(c *cell, over time.Duration) float64 {
	before, start := c.net.Stats().Sent, time.Now()
	time.Sleep(over)
	return float64(c.net.Stats().Sent-before) / time.Since(start).Seconds()
}

// run performs the whole probe and adds its metrics to m.
func (p *prober) run(n int, idlePerSec float64, m metrics) error {
	if err := p.rounds(n); err != nil {
		return err
	}
	if p.failed*50 > p.calls {
		return fmt.Errorf("%d of %d probe calls failed, first: %w", p.failed, p.calls, p.firstErr)
	}
	var p50 [numDepths][numProbeKinds]float64
	for depth := range p.lat {
		for kind, durs := range p.lat[depth] {
			if len(durs) == 0 {
				continue
			}
			p50[depth][kind] = us(median(durs))
			m.add(depthNames[depth]+"."+probeKindNames[kind]+"_us", p50[depth][kind], "us", len(durs))
		}
	}
	m.add("agent.read_cached_us", us(median(p.cachedRead)), "us", len(p.cachedRead))
	self := func(name string, upper, lower, kind int) {
		m.add(name, p50[upper][kind]-p50[lower][kind], "us", n)
	}
	self("agent.read_self_us", depthAgent, depthServer, probeRead)
	self("agent.write_self_us", depthAgent, depthServer, probeWriteHot)
	self("server.read_self_us", depthServer, depthEnvelope, probeRead)
	self("server.write_self_us", depthServer, depthEnvelope, probeWriteHot)
	self("envelope.write_self_us", depthEnvelope, depthCore, probeWriteHot)
	self("server.create_self_us", depthServer, depthEnvelope, probeCreate)

	// Counted batches, each started with the cell quiet. The hot batch goes
	// last: the stability mark it leaves behind would land in a later count.
	calls := min(countCalls, n)
	time.Sleep(settle)
	if err := p.counted(m, "core.write_cold", calls, settle, idlePerSec, func() error { return p.write(depthCore, p.nextCold()) }); err != nil {
		return err
	}
	if err := p.counted(m, "envelope.create", calls, settle, idlePerSec, func() error { return p.create(depthEnvelope) }); err != nil {
		return err
	}
	// Hot: the file is made unstable before the count and still is at its end.
	hot := func() error { return p.write(depthCore, &p.files[1]) }
	if err := hot(); err != nil {
		return err
	}
	time.Sleep(settle / 20)
	return p.counted(m, "core.write_hot", calls, settle/20, idlePerSec, hot)
}

// nopApp is the isis application of the scratch group: casts cost only what
// isis itself does.
type nopApp struct{}

func (nopApp) Deliver(simnet.NodeID, []byte) []byte  { return nil }
func (nopApp) ViewChange(isis.View, isis.ViewReason) {}
func (nopApp) Snapshot() []byte                      { return nil }
func (nopApp) Restore([]byte)                        {}
func (nopApp) Merge([]byte)                          {}

// timeCalls times n calls of fn and returns the median.
func timeCalls(n int, fn func() error) (time.Duration, error) {
	durs := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(start))
	}
	return median(durs), nil
}

// scratchProbes times the lowest layers alone, on scratch objects beside
// the live cell: an isis group with a no-op application on the servers'
// processes, a LogStore in the cell's directory, two extra simnet
// endpoints, and the NFS null procedure.
func scratchProbes(ctx context.Context, c *cell, rpc *sunrpc.Client, n int, idlePerSec float64, m metrics) error {
	const group = "bench-scratch"
	coord, err := c.servers[0].Proc().Create(group, nopApp{})
	if err != nil {
		return fmt.Errorf("scratch group: %w", err)
	}
	groups := []*isis.Group{coord}
	for _, srv := range c.servers[1:] {
		g, err := srv.Proc().Join(ctx, group, nopApp{})
		if err != nil {
			return fmt.Errorf("scratch group join: %w", err)
		}
		groups = append(groups, g)
	}
	payload := make([]byte, 64)
	cast := func(g *isis.Group) func() error {
		return func() error {
			_, err := g.Cast(ctx, payload, isis.All)
			return err
		}
	}
	d, err := timeCalls(n, cast(groups[0]))
	if err != nil {
		return fmt.Errorf("scratch cast: %w", err)
	}
	m.add("isis.cast_coord_us", us(d), "us", n)
	before, start := c.net.Stats().Sent, time.Now()
	if d, err = timeCalls(n, cast(groups[1])); err != nil {
		return fmt.Errorf("scratch cast: %w", err)
	}
	sent := float64(c.net.Stats().Sent-before) - idlePerSec*time.Since(start).Seconds()
	m.add("isis.cast_member_us", us(d), "us", n)
	m.add("isis.cast_msgs", sent/float64(n), "count", n)
	for _, g := range groups {
		_ = g.Leave() // the cell is torn down right after
	}

	st, err := store.OpenLog(filepath.Join(c.dir, "scratch"), store.LogOptions{})
	if err != nil {
		return fmt.Errorf("scratch store: %w", err)
	}
	defer st.Close()
	val := make([]byte, fileSize)
	batch := func(size int) func() error {
		ops := make([]store.Op, size)
		return func() error {
			for i := range ops {
				ops[i] = store.Op{Bucket: "b", Key: fmt.Sprintf("k%d", i), Val: val}
			}
			return st.PutBatch(ops)
		}
	}
	walBefore := st.Stats()
	if d, err = timeCalls(n, batch(1)); err != nil {
		return fmt.Errorf("scratch putbatch: %w", err)
	}
	walAfter := st.Stats()
	m.add("store.putbatch_1_us", us(d), "us", n)
	m.add("store.bytes_per_commit_1", ratio(float64(walAfter.WalBytes-walBefore.WalBytes), float64(walAfter.Commits-walBefore.Commits)), "B", n)
	if d, err = timeCalls(max(n/2, 1), batch(8)); err != nil {
		return fmt.Errorf("scratch putbatch: %w", err)
	}
	m.add("store.putbatch_8_us", us(d), "us", max(n/2, 1))

	a, b := c.net.Attach("bench-a"), c.net.Attach("bench-b")
	defer a.Close()
	defer b.Close()
	hops := 10 * n
	if d, err = timeCalls(hops, func() error {
		if err := a.Send(b.Local(), payload); err != nil {
			return err
		}
		select {
		case <-b.Recv():
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}); err != nil {
		return fmt.Errorf("scratch hop: %w", err)
	}
	m.add("simnet.hop_us", us(d), "us", hops)

	if d, err = timeCalls(hops, func() error {
		_, err := rpc.Call(nfsproto.NFSProgram, nfsproto.NFSVersion, nfsproto.ProcNull, nil)
		return err
	}); err != nil {
		return fmt.Errorf("scratch null rpc: %w", err)
	}
	m.add("sunrpc.null_rtt_us", us(d), "us", hops)
	return nil
}
