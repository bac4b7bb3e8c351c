// Command benchmark is the repository's performance benchmark: per workload
// it boots a fresh in-process 3-server Deceit cell in the shape cmd/deceitd
// ships, drives it closed-loop from 2 caching NFS clients, checks what every
// read returns, and prints end-to-end metrics (-trace 0) or per-layer
// metrics (-trace 1) followed by one JSON result line. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

type metrics map[string]metric

func (m metrics) add(name string, value float64, unit string, samples int) {
	m[name] = metric{value, unit, samples}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is one run of one workload.
type config struct {
	epoch    time.Time // every clock reading of the run is a time since it
	w        *workload
	seed     int64
	window   time.Duration
	trace    bool
	setups   int    // set-ups per untraced run; setup_s is their median
	baseDir  string // cell directories are made and removed under it
	traceOut string // directory for the span file
	out      io.Writer
}

// setUp boots a fresh cell in a fresh directory and prepopulates the
// workload's files.
func setUp(cfg *config) (*cell, *fileset, error) {
	dir, err := os.MkdirTemp(cfg.baseDir, "cell-")
	if err != nil {
		return nil, nil, err
	}
	c, err := bootCell(dir)
	if err != nil {
		return nil, nil, err
	}
	fs, err := populate(c, "bench", cfg.w.files)
	if err != nil {
		c.close()
		return nil, nil, err
	}
	return c, fs, nil
}

// slice is one stretch of a measured window, a second long unless the window
// is shorter: where it ended and the process CPU time it used.
type slice struct {
	end time.Duration // since the epoch
	cpu time.Duration
}

// drive runs every client until the window ends. It returns when the window
// started and its slices; per-slice rates and their median keep one stalled
// stretch (a protocol round that waits out a product timeout) from setting
// the run's throughput figure.
func drive(clients []*client, window time.Duration, record bool) (start time.Duration, sl []slice) {
	epoch := clients[0].epoch
	start = time.Since(epoch)
	deadline := start + window
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(deadline, record)
		}()
	}
	for at, cpu := start, cpuTime(); at < deadline; {
		at = min(at+time.Second, deadline)
		time.Sleep(at - time.Since(epoch))
		now := cpuTime()
		sl = append(sl, slice{end: time.Since(epoch), cpu: now - cpu})
		cpu = now
	}
	wg.Wait()
	return start, sl
}

// harnessOverhead runs the client loop around an op that does nothing. It
// returns what the harness adds to every latency sample (the median
// "latency" of the no-op) and the cost of a whole turn of the loop: picking
// the op, two clock reads, recording the sample.
func harnessOverhead(w *workload, fs *fileset) (perSample, perTurn time.Duration) {
	cl := newClient(0, time.Now(), nil, w, fs, nil, 0)
	cl.calibrating = true
	const length = 50 * time.Millisecond
	cl.run(length, true)
	durs := make([]time.Duration, len(cl.samples))
	for i, s := range cl.samples {
		durs[i] = s.dur
	}
	return median(durs), length / time.Duration(max(cl.attempted, 1))
}

// tally is what the clients did in one recorded window.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
	lat                      [numClasses][]time.Duration // verified ops that ended inside the window, sorted
	all                      []time.Duration             // the same, every class together
	stalled                  int                         // of those, ops that took over a second
}

func tallyClients(clients []*client) *tally {
	t := &tally{}
	for _, cl := range clients {
		t.attempted += cl.attempted
		t.failed += cl.failed
		t.wrong += cl.wrong
		if t.firstErr == nil {
			t.firstErr = cl.firstErr
		}
		for _, s := range cl.samples {
			t.lat[s.class] = append(t.lat[s.class], s.dur)
			t.all = append(t.all, s.dur)
			if s.dur > time.Second {
				t.stalled++
			}
		}
	}
	for i := range t.lat {
		slices.Sort(t.lat[i])
	}
	slices.Sort(t.all)
	return t
}

// sliceRates returns, per slice, the ops completed per second and the CPU
// microseconds per completed op (slices in which nothing completed have no
// such figure), both sorted.
func sliceRates(clients []*client, start time.Duration, sl []slice) (opsPerSec, cpuPerOp []float64) {
	counts := make([]int, len(sl))
	for _, cl := range clients {
		i := 0
		for _, s := range cl.samples { // in order of their end
			for i < len(sl)-1 && s.end > sl[i].end {
				i++
			}
			counts[i]++
		}
	}
	for i, s := range sl {
		opsPerSec = append(opsPerSec, float64(counts[i])/(s.end-start).Seconds())
		if counts[i] > 0 {
			cpuPerOp = append(cpuPerOp, us(s.cpu)/float64(counts[i]))
		}
		start = s.end
	}
	slices.Sort(opsPerSec)
	slices.Sort(cpuPerOp)
	return opsPerSec, cpuPerOp
}

func resetClients(clients []*client, tr bool) {
	for _, cl := range clients {
		cl.samples = cl.samples[:0]
		cl.attempted, cl.failed, cl.wrong = 0, 0, 0
		cl.tr = nil
		if tr {
			cl.tr = newTracer(cl.id)
		}
	}
}

// liveHeapMB is the heap in use after a collection, less the latency
// samples and spans the harness itself is holding.
func liveHeapMB(clients []*client) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	live := float64(ms.HeapAlloc)
	for _, cl := range clients {
		live -= float64(cap(cl.samples)) * float64(unsafe.Sizeof(sample{}))
		if cl.tr != nil {
			live -= float64(cap(cl.tr.spans)) * float64(unsafe.Sizeof(span{}))
		}
	}
	return live / (1 << 20)
}

// endToEnd measures the end-to-end metrics: one window, tracing off.
func endToEnd(cfg *config, c *cell, clients []*client, overhead, turn time.Duration, m metrics) (*tally, error) {
	resetClients(clients, false)
	before := c.counters()
	start, sl := drive(clients, cfg.window, true)
	d := c.counters().sub(before)
	heap := liveHeapMB(clients)
	t := tallyClients(clients)
	if len(t.all) == 0 {
		return nil, fmt.Errorf("no op completed inside the window (first error: %v)", t.firstErr)
	}
	opsPerSec, cpuPerOp := sliceRates(clients, start, sl)
	m.add("goodput_ops_s", quantile(opsPerSec, 0.5), "1/s", len(opsPerSec))
	m.add("op_p90_ms", ms(quantile(t.all, 0.9)), "ms", len(t.all))
	m.add("cpu_us_per_op", quantile(cpuPerOp, 0.5), "us", len(cpuPerOp))

	// Medians, per-class latencies and the failure share are printed for the
	// reader. They are not in the JSON: the median of a mix of cheap and
	// dear ops sits where the two meet and swings by a quarter between
	// identical runs, not every workload has every class, and a share that
	// is normally 0 cannot carry a relative bound.
	fmt.Fprintf(cfg.out, "# all ops: n=%d p50=%.4f ms p90=%.4f ms p99=%.4f ms\n",
		len(t.all), ms(quantile(t.all, 0.5)), ms(quantile(t.all, 0.9)), ms(quantile(t.all, 0.99)))
	fastest := time.Duration(0)
	for cls, durs := range t.lat {
		if len(durs) == 0 {
			continue
		}
		p50 := quantile(durs, 0.5)
		fmt.Fprintf(cfg.out, "# %s: n=%d p50=%.4f ms p90=%.4f ms p99=%.4f ms max=%.1f ms\n",
			classNames[cls], len(durs), ms(p50), ms(quantile(durs, 0.9)), ms(quantile(durs, 0.99)), ms(durs[len(durs)-1]))
		if fastest == 0 || p50 < fastest {
			fastest = p50
		}
	}
	fmt.Fprintf(cfg.out, "# whole window: %.1f ops/s; slowest and fastest slice %.1f and %.1f ops/s; %d ops stalled over 1 s\n",
		float64(len(t.all))/cfg.window.Seconds(), opsPerSec[0], opsPerSec[len(opsPerSec)-1], t.stalled)
	fmt.Fprintf(cfg.out, "# memory: live heap %.1f MiB after the window (harness samples excluded), peak RSS %.0f MiB\n", heap, peakRSSMB())
	fmt.Fprintf(cfg.out, "# per op: %.2f rpcs, %.2f messages, %.2f fsyncs\n",
		ratio(float64(d.rpcs), float64(len(t.all))), ratio(float64(d.msgs), float64(len(t.all))), ratio(float64(d.fsyncs), float64(len(t.all))))
	fmt.Fprintf(cfg.out, "# fail_frac %.6f (%d failed, %d wrong output, %d attempted)\n",
		float64(t.failed+t.wrong)/float64(max(t.attempted, 1)), t.failed, t.wrong, t.attempted)
	fmt.Fprintf(cfg.out, "# harness.overhead_ns %d added to each latency sample, %d per turn of the client loop (fastest class p50 %d ns)\n",
		overhead.Nanoseconds(), turn.Nanoseconds(), fastest.Nanoseconds())
	if overhead*100 > fastest {
		return nil, fmt.Errorf("harness adds %v to a latency sample, over 1%% of the fastest op class p50 %v", overhead, fastest)
	}
	return t, nil
}

// runWorkload performs one run and prints its metrics to cfg.out.
func runWorkload(cfg *config) (*result, error) {
	w, m := cfg.w, metrics{}
	cfg.epoch = time.Now()
	fmt.Fprintf(cfg.out, "# workload %s: %s\n", w.name, w.why)
	fmt.Fprintf(cfg.out, "# seed %d, window %v, %d closed-loop clients, %d servers, nproc %d, GOMAXPROCS %d, %s, store on %s\n",
		cfg.seed, cfg.window, numClients, numServers, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(cfg.baseDir))
	fmt.Fprintln(cfg.out, "# inter-server messages: simnet, zero injected delay, no loss; clients on loopback TCP; latencies are this sandbox's processor and fsync time")

	var (
		c          *cell
		fs         *fileset
		setupTimes []time.Duration
	)
	n := cfg.setups
	if cfg.trace {
		n = 1
	}
	// A set-up that fails (at HEAD, about one in 300 wedges on a busy
	// segment until an op times out) is thrown away and done again: the
	// measured window needs a cell, and two spare attempts make a failed
	// run rarer than any other cause.
	for spare := 2; len(setupTimes) < n; {
		if c != nil {
			c.close()
		}
		start := time.Now()
		var err error
		if c, fs, err = setUp(cfg); err != nil {
			if spare--; spare < 0 {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			fmt.Fprintf(cfg.out, "# set-up failed and is repeated: %v\n", err)
			continue
		}
		setupTimes = append(setupTimes, time.Since(start))
	}
	fmt.Fprintf(cfg.out, "# set-up (boot + prepopulate %d files): %v; replicas of %d files moved onto %v\n",
		w.files, setupTimes, fs.moved, c.ids[:numClients])
	defer func() { c.close() }()

	overhead, turn := harnessOverhead(w, fs)
	chk := newChecker(w.files)
	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = newClient(i, cfg.epoch, c.clients[i], w, fs, chk, cfg.seed)
	}
	drive(clients, min(2*time.Second, cfg.window/5), false) // warm-up, not counted

	var t *tally
	var err error
	if cfg.trace {
		t, err = tracedPass(cfg, c, clients, m)
		m.add("harness.overhead_ns", float64(overhead.Nanoseconds()), "ns", 1)
	} else {
		t, err = endToEnd(cfg, c, clients, overhead, turn, m)
		m.add("setup_s", median(setupTimes).Seconds(), "s", len(setupTimes))
	}
	if err != nil {
		return nil, err
	}
	if t.firstErr != nil {
		fmt.Fprintf(cfg.out, "# first failed op: %v\n", t.firstErr)
	}

	// Quiesced audit through the server no client is homed on, cache off.
	time.Sleep(settle)
	auditor, err := c.mount(numServers-1, false)
	if err != nil {
		return nil, err
	}
	checked, wrongBlocks, first := audit(auditor, fs, chk)
	auditor.Close()
	fmt.Fprintf(cfg.out, "# audit: %d written blocks re-read through %s, %d wrong\n", checked, c.ids[numServers-1], wrongBlocks)
	if first != nil {
		fmt.Fprintf(cfg.out, "# first wrong block: %v\n", first)
	}
	res := &result{
		Correct:   t.wrong+wrongBlocks == 0,
		Attempted: t.attempted + checked,
		Failed:    t.failed + t.wrong + wrongBlocks,
		Metrics:   m,
	}
	if float64(res.Failed) > 0.001*float64(res.Attempted) {
		return nil, fmt.Errorf("%d of %d ops failed or returned wrong output, above 0.001", res.Failed, res.Attempted)
	}

	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(cfg.out, "%-30s %14.4f %-6s n=%d\n", name, m[name].Value, m[name].Unit, m[name].samples)
	}
	return res, nil
}

// tracedPass measures the per-layer metrics on the warmed cell: an untraced
// and a traced window of the workload with every public counter differenced
// over the traced one, then the depth probe and the scratch probes.
func tracedPass(cfg *config, c *cell, clients []*client, m metrics) (*tally, error) {
	part := cfg.window / 4

	resetClients(clients, false)
	start, sl := drive(clients, part, true)
	untraced, _ := sliceRates(clients, start, sl)

	resetClients(clients, true)
	poller := startWalPoller(c.stores)
	before := c.counters()
	start, sl = drive(clients, part, true)
	d := c.counters().sub(before)
	poller.finish()
	traced, _ := sliceRates(clients, start, sl)
	t := tallyClients(clients)
	lat, nOps := t.lat, len(t.all)
	ops := float64(nOps)
	if nOps == 0 {
		return nil, fmt.Errorf("no op completed inside the traced window (first error: %v)", t.firstErr)
	}
	m.add("agent.rpcs_per_op", float64(d.rpcs)/ops, "count", nOps)
	m.add("agent.cache_hit_frac", ratio(float64(d.cacheHits), float64(len(lat[classRead])+len(lat[classStat]))), "frac", nOps)
	m.add("agent.revalidations_per_op", float64(d.revalidations)/ops, "count", nOps)
	m.add("agent.failovers", float64(d.failovers), "count", nOps)
	for cls, durs := range lat {
		m.add("agent."+classNames[cls]+"_p99_us", us(quantile(durs, 0.99)), "us", len(durs))
	}
	m.add("agent.stalled_ops", float64(t.stalled), "count", nOps)
	m.add("server.sheds", float64(d.sheds), "count", nOps)
	m.add("core.reads_local_frac", ratio(float64(d.readsLocal), float64(d.readsLocal+d.readsForwarded)), "frac", int(d.readsLocal+d.readsForwarded))
	m.add("core.read_token_casts_per_op", float64(d.tokenCasts)/ops, "count", nOps)
	m.add("core.xfer_bytes_per_op", float64(d.xferBytes)/ops, "B", nOps)
	m.add("simnet.msgs_per_op", float64(d.msgs)/ops, "count", nOps)
	m.add("simnet.bytes_per_op", float64(d.netBytes)/ops, "B", nOps)
	m.add("simnet.dropped", float64(d.dropped), "count", nOps)
	m.add("store.fsyncs_per_op", float64(d.fsyncs)/ops, "count", nOps)
	m.add("store.commits_per_op", float64(d.commits)/ops, "count", nOps)
	m.add("store.ops_per_fsync", ratio(float64(d.storeOps), float64(d.fsyncs)), "count", int(d.fsyncs))
	m.add("store.wal_bytes_per_op", float64(poller.walBytes)/ops, "B", nOps)
	m.add("store.checkpoints", float64(poller.checkpoints), "count", nOps)
	tracers := make([]*tracer, 0, len(clients)+1)
	spans := 0
	for _, cl := range clients {
		tracers = append(tracers, cl.tr)
		spans += len(cl.tr.spans)
	}
	m.add("harness.live_heap_mb", liveHeapMB(clients), "MiB", 1)
	m.add("harness.peak_rss_mb", peakRSSMB(), "MiB", 1)
	m.add("trace.spans", float64(spans), "count", nOps)
	m.add("trace.overhead_frac", 1-ratio(quantile(traced, 0.5), quantile(untraced, 0.5)), "frac", nOps)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	probeTracer := newTracer(len(clients))
	tracers = append(tracers, probeTracer)
	p, err := newProber(ctx, c, cfg.epoch, probeTracer)
	if err != nil {
		return nil, err
	}
	defer p.close()
	time.Sleep(settle)
	idle := idleRate(c, min(500*time.Millisecond, part))
	m.add("simnet.idle_msgs_per_s", idle, "1/s", 1)
	calls := int(min(max(cfg.window.Seconds()*5, 8), 300))
	if err := p.run(calls, idle, m); err != nil {
		return nil, err
	}
	if err := scratchProbes(ctx, c, p.rpc, calls, idle, m); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.traceOut, cfg.w.name+".spans.csv")
	if err := writeSpans(path, tracers...); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(cfg.out, "# spans written to %s\n", path)
	return t, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: read-spread, write-spread, hot-mixed, meta-churn or all")
		seed     = flag.Int64("seed", 1, "seed of the op sequence")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		traceOut = flag.String("trace-out", filepath.Join(".bench_build", "trace"), "directory the traced pass writes its span file to")
	)
	flag.Parse()
	var run []*workload
	if *name == "all" {
		run = workloads
	} else if w := workloadByName(*name); w != nil {
		run = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", *name)
		os.Exit(2)
	}

	// Cells keep fsynced logs in directories under runDir; it is removed on
	// every way out, a signal included.
	runs := filepath.Join(".bench_build", "run")
	err := os.MkdirAll(runs, 0o755)
	var runDir string
	if err == nil {
		runDir, err = os.MkdirTemp(runs, "run-")
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	exit := func(code int) {
		_ = os.RemoveAll(runDir)
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		exit(130)
	}()

	ok := true
	for _, w := range run {
		res, err := runWorkload(&config{
			w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0, setups: 3,
			baseDir: runDir, traceOut: *traceOut, out: os.Stdout,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		exit(1)
	}
	exit(0)
}
