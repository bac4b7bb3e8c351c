// Package load is the chaos gate: it drives a cell of full Deceit servers
// with concurrent NFS agents at a fixed arrival rate (open loop — arrivals
// keep coming whether or not earlier ops finished, so saturation shows up
// as queueing and failures instead of silently throttling the generator).
// Run drives a healthy cell; RunChaos injects faults into the inter-server
// network, the servers' admission control and one server's store while the
// load runs, and judges whether the cell degrades gracefully (see chaos.go).
package load

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/derr"
	"repro/internal/nfsproto"
	"repro/internal/simnet"
	"repro/internal/testnfs"
)

const (
	servers      = 3    // cell size: the chaos run needs a partition minority and a crash victim
	fileSize     = 4096 // bytes per prepopulated file
	opBytes      = 512  // bytes moved per read/write op
	replicas     = 2    // MinReplicas for every file's params
	seed         = 1    // seeds the workload picker and the simnet loss rng
	drainTimeout = 20 * time.Second
)

// Config parameterizes one run.
type Config struct {
	Agents   int           // concurrent client agents (each owns a TCP conn)
	Rate     float64       // arrivals per second
	Duration time.Duration // generation window
	Files    int           // prepopulated files under /load
	Mix      Mix           // the op blend the generator draws from

	Logf func(format string, args ...any) // optional progress output
}

func (c Config) withLogf() Config {
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// cellParams are the default params of every file the run creates.
func cellParams() core.Params {
	p := core.DefaultParams()
	p.MinReplicas = replicas
	return p
}

// MixResult is one run's measured outcome.
type MixResult struct {
	Offered    uint64
	Completed  uint64
	Errored    uint64
	Shed       uint64 // arrivals abandoned at the drain deadline
	Throughput float64

	// Errors is the taxonomy of failed ops, keyed by the derr category the
	// typed error carried across the wire ("unavailable", "overloaded",
	// "timeout", "not-found", ...), plus "nfs-<status>" for legacy replies
	// with no typed trailer and "drain-shed" for arrivals the harness
	// abandoned at the drain deadline.
	Errors map[string]uint64

	Net simnet.Stats // the inter-server network's counters over the run
}

// arrival is one scheduled op.
type arrival struct {
	class OpClass
	file  int
	off   int
}

// Run boots a healthy cell, prepopulates the working set and drives
// cfg.Mix at cfg.Rate for cfg.Duration.
func Run(cfg Config) (*MixResult, error) {
	cfg = cfg.withLogf()
	cfg.Logf("load: booting %d-server cell", servers)
	cell, err := testnfs.NewNFSCellParams(servers, cellParams())
	if err != nil {
		return nil, fmt.Errorf("load: boot cell: %w", err)
	}
	defer cell.Close()
	fx, err := newFixture(cell, cfg)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	return runMix(cell, fx, nil), nil
}

// fixture is the prepopulated working set plus the agent pool.
type fixture struct {
	cfg     Config
	dir     nfsproto.Handle
	handles []nfsproto.Handle
	agents  []*agent.Agent
	payload []byte
}

// rotate returns addrs with element i first, so agent i's primary server is
// addrs[i % n] and load spreads across the whole cell instead of piling
// onto the first server.
func rotate(addrs []string, i int) []string {
	n := len(addrs)
	out := make([]string, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, addrs[(i+j)%n])
	}
	return out
}

func newFixture(cell *testnfs.NFSCell, cfg Config) (*fixture, error) {
	fx := &fixture{cfg: cfg, payload: make([]byte, opBytes)}
	for i := range fx.payload {
		fx.payload[i] = byte('a' + i%26)
	}
	addrs := cell.Addrs()
	for i := 0; i < cfg.Agents; i++ {
		ag, err := agent.Mount(rotate(addrs, i), agent.Options{Cache: true})
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("load: mount agent %d: %w", i, err)
		}
		fx.agents = append(fx.agents, ag)
	}

	// Prepopulate: files are created round-robin through the pool, so their
	// initial replicas spread across the cell's servers.
	cfg.Logf("load: prepopulating %d files of %d bytes", cfg.Files, fileSize)
	content := make([]byte, fileSize)
	for i := range content {
		content[i] = byte('0' + i%10)
	}
	prep := &derr.Policy{MaxAttempts: 1 << 8, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := prep.Do(ctx, func(context.Context) error {
		return fx.agents[0].MkdirAll("/load")
	}); err != nil {
		fx.close()
		return nil, fmt.Errorf("load: mkdir /load: %w", err)
	}
	for f := 0; f < cfg.Files; f++ {
		path := filePath(f)
		ag := fx.agents[f%len(fx.agents)]
		if err := prep.Do(ctx, func(context.Context) error {
			return ag.WriteFile(path, content)
		}); err != nil {
			fx.close()
			return nil, fmt.Errorf("load: prepopulate %s: %w", path, err)
		}
	}
	dirH, _, err := fx.agents[0].Walk("/load")
	if err != nil {
		fx.close()
		return nil, fmt.Errorf("load: walk /load: %w", err)
	}
	fx.dir = dirH
	for f := 0; f < cfg.Files; f++ {
		h, _, err := fx.agents[0].Walk(filePath(f))
		if err != nil {
			fx.close()
			return nil, fmt.Errorf("load: walk %s: %w", filePath(f), err)
		}
		fx.handles = append(fx.handles, h)
	}
	return fx, nil
}

func filePath(f int) string { return fmt.Sprintf("/load/f%04d.dat", f) }

func (fx *fixture) close() {
	for _, ag := range fx.agents {
		ag.Close()
	}
}

// do executes one op against one agent.
func (fx *fixture) do(ag *agent.Agent, a arrival) error {
	switch a.class {
	case OpRead:
		_, err := ag.Read(fx.handles[a.file], uint32(a.off), opBytes)
		return err
	case OpWrite:
		_, err := ag.Write(fx.handles[a.file], uint32(a.off), fx.payload)
		return err
	case OpGetattr:
		_, err := ag.Getattr(fx.handles[a.file])
		return err
	case OpReaddir:
		_, err := ag.Readdir(fx.dir)
		return err
	}
	return fmt.Errorf("load: unknown op class %q", a.class)
}

// classify maps an op error into the result's error taxonomy: the derr
// category carried across the wire. Replies from servers predating the
// typed trailer fall back to their raw NFS status; anything untyped beyond
// that classifies through derr's default projection (context expiry →
// timeout, everything else → internal).
func classify(err error) string {
	var ne *agent.NFSError
	if _, ok := derr.AsError(err); !ok && errors.As(err, &ne) {
		return "nfs-" + ne.Status.String()
	}
	return derr.CategoryOf(err).String()
}

// workerState is one worker's private tallies, merged after the run so the
// hot path takes no locks.
type workerState struct {
	errs      map[string]uint64
	completed uint64
	errored   uint64
	shed      uint64
}

// timeline buckets completions by wall-clock time since run start; the
// chaos assertions read recovery-window behavior off it.
type timeline struct {
	width time.Duration
	ok    []atomic.Uint64
	bad   []atomic.Uint64
}

func newTimeline(span, width time.Duration) *timeline {
	n := int(span/width) + 2
	return &timeline{width: width, ok: make([]atomic.Uint64, n), bad: make([]atomic.Uint64, n)}
}

func (t *timeline) record(since time.Duration, failed bool) {
	i := int(since / t.width)
	if i < 0 {
		i = 0
	}
	if i >= len(t.ok) {
		i = len(t.ok) - 1
	}
	if failed {
		t.bad[i].Add(1)
	} else {
		t.ok[i].Add(1)
	}
}

// window sums completions in [from, to) since run start.
func (t *timeline) window(from, to time.Duration) (ok, bad uint64) {
	lo, hi := int(from/t.width), int(to/t.width)
	for i := lo; i < hi && i < len(t.ok); i++ {
		if i < 0 {
			continue
		}
		ok += t.ok[i].Load()
		bad += t.bad[i].Load()
	}
	return ok, bad
}

// runMix drives fx.cfg.Mix at fx.cfg.Rate for fx.cfg.Duration. hooks, if
// non-nil, attaches the chaos machinery: its background func runs from the
// generator's start until the run is fully drained, and its timeline
// receives per-completion ticks.
func runMix(cell *testnfs.NFSCell, fx *fixture, hooks *mixHooks) *MixResult {
	cfg := fx.cfg
	cell.Net.Seed(seed)
	cell.Net.ResetStats()
	pick := newPicker(cfg.Mix, cfg.Files, seed)

	total := int(cfg.Rate * cfg.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	// The buffer holds every arrival, so the generator never blocks on slow
	// workers: that is what makes the loop open rather than closed.
	arrivals := make(chan arrival, total)

	var stop atomic.Bool
	var wg sync.WaitGroup
	workers := make([]*workerState, len(fx.agents))
	start := time.Now()
	var tl *timeline
	if hooks != nil {
		tl = hooks.timeline
	}
	for w := range fx.agents {
		ws := &workerState{errs: make(map[string]uint64)}
		workers[w] = ws
		wg.Add(1)
		go func(ag *agent.Agent, ws *workerState) {
			defer wg.Done()
			for a := range arrivals {
				if stop.Load() {
					ws.errs["drain-shed"]++
					ws.shed++
					continue
				}
				err := fx.do(ag, a)
				if err != nil {
					ws.errs[classify(err)]++
					ws.errored++
				} else {
					ws.completed++
				}
				if tl != nil {
					tl.record(time.Since(start), err != nil)
				}
			}
		}(fx.agents[w], ws)
	}

	bgDone := make(chan struct{})
	if hooks != nil {
		go func() {
			defer close(bgDone)
			hooks.background(start)
		}()
	} else {
		close(bgDone)
	}

	// Open-loop generator: fixed spacing from the scheduled timeline, never
	// from op completions.
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	next := start
	for i := 0; i < total; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		class, file, off := pick.next()
		arrivals <- arrival{class: class, file: file, off: off}
		next = next.Add(interval)
	}
	close(arrivals)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		stop.Store(true)
		<-done
	}
	<-bgDone
	elapsed := time.Since(start)

	mr := &MixResult{Offered: uint64(total), Errors: make(map[string]uint64)}
	for _, ws := range workers {
		mr.Completed += ws.completed
		mr.Errored += ws.errored
		mr.Shed += ws.shed
		for k, v := range ws.errs {
			mr.Errors[k] += v
		}
	}
	mr.Throughput = float64(mr.Completed) / elapsed.Seconds()
	mr.Net = cell.Net.Stats()
	cfg.Logf("load: %.1f ops/s, %d errors %v", mr.Throughput, mr.Errored, mr.Errors)
	return mr
}

// mixHooks attaches chaos machinery to a run.
type mixHooks struct {
	timeline   *timeline
	background func(start time.Time)
}
