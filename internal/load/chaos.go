package load

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/derr"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/testnfs"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// The chaos schedule is fixed in shape and scaled to the run's duration D:
//
//	0.10 D  wan-latency   SetLatency(chaosLatency, chaosJitter) on the server network
//	0.20 D  loss          SetLoss(chaosLoss)
//	0.30 D  partition     srv1 isolated from the majority
//	0.45 D  heal          partition healed
//	0.46 D  overload      every server's admission bound squeezed to 1:
//	                      excess requests are shed with typed Overloaded
//	                      errors and retry-after hints
//	0.53 D  unsqueeze     admission bounds restored to unlimited
//	0.55 D  crash         last server killed mid-group-commit: its on-disk
//	                      log store is left with a torn (half-written) wal
//	                      frame
//	0.70 D  restart       crashed server recovers its store from checkpoint
//	                      + log replay (truncating the torn tail) and reboots
//	                      on its old address; latency and loss cleared
//	0.85 D  recovery window begins — the gates below read it; if the
//	        restart fired late the window re-anchors to restart + 0.15 D
const (
	chaosLatency = 2 * time.Millisecond // injected one-way WAN latency
	chaosJitter  = time.Millisecond     // latency jitter bound
	chaosLoss    = 0.02                 // message loss probability

	// Graceful-degradation gates: the run must keep its overall error
	// fraction under maxErrorFraction, and inside the recovery window —
	// after every fault is healed — the error fraction must fall below
	// recoveryMaxErrorFraction while throughput recovers to at least
	// recoveryMinThroughputFraction of the offered rate. Shed requests must
	// reach the clients as typed Overloaded errors: zero server sheds, or
	// server sheds without client-side Overloaded errors, are violations.
	maxErrorFraction              = 0.50
	recoveryMaxErrorFraction      = 0.10
	recoveryMinThroughputFraction = 0.50
)

// ChaosEvent records one injected fault (or its repair) on the run's clock.
type ChaosEvent struct {
	AtSec float64
	Name  string
}

// TraceBucket is one second of the chaos run: completions and failures
// landing in that second. The trace makes recovery shape visible when the
// gate fails — where throughput dipped and how fast it came back.
type TraceBucket struct {
	Sec int
	Ok  uint64
	Bad uint64
}

// RecoveryStats is the measured behavior inside the recovery window.
type RecoveryStats struct {
	WindowStartSec float64
	WindowSec      float64
	Completed      uint64
	Errored        uint64
	ErrorFraction  float64
	Throughput     float64
}

// ChaosResult is the chaos run's MixResult plus the injected schedule and
// the graceful-degradation verdict.
type ChaosResult struct {
	MixResult
	Events        []ChaosEvent
	ErrorFraction float64
	Trace         []TraceBucket
	Recovery      RecoveryStats
	Graceful      bool
	Violations    []string
}

// victimLog is the chaos crash victim's on-disk log store state: the
// directory its LogStore persists into and the injector that tears its
// in-flight commit at crash time.
type victimLog struct {
	dir string
	inj *testutil.CrashInjector
}

// RunChaos boots a cell, prepopulates the working set and drives cfg.Mix
// at cfg.Rate for cfg.Duration with the fault schedule riding alongside,
// then evaluates the graceful-degradation gates. A run that fails them is
// reported in ChaosResult.Violations, not as an error.
//
// Every odd-numbered server's RPC endpoint runs one wire-protocol minor
// behind the dialing agents (same major), so the run doubles as the
// mixed-version compatibility proof. The crash victim persists into a real
// on-disk LogStore wearing a fault injector: the crash tears a wal frame
// mid-group-commit and the restart reopens the directory, so the run
// exercises torn-tail truncation and checkpoint+log recovery under live
// load, not just an in-memory state swap.
func RunChaos(cfg Config) (*ChaosResult, error) {
	cfg = cfg.withLogf()
	dir, err := os.MkdirTemp("", "deceit-chaos-victim-*")
	if err != nil {
		return nil, fmt.Errorf("load: victim log dir: %w", err)
	}
	defer os.RemoveAll(dir)
	vlog := &victimLog{dir: dir, inj: testutil.NewCrashInjector()}
	victim := servers - 1
	cfg.Logf("load: booting %d-server cell", servers)
	cell, err := testnfs.NewNFSCellStores(servers, cellParams(), func(i int) (store.Store, error) {
		if i != victim {
			return nil, nil // default MemStore
		}
		return store.OpenLog(dir, store.LogOptions{Faults: vlog.inj})
	})
	if err != nil {
		return nil, fmt.Errorf("load: boot cell: %w", err)
	}
	defer cell.Close()
	for i, nd := range cell.Nodes {
		if i%2 == 1 {
			nd.Server.RPC().SetProtocolVersion(wire.ProtocolMajor, wire.ProtocolMinor-1)
		}
	}
	cfg.Logf("load: version skew: odd servers at v%d.%d", wire.ProtocolMajor, wire.ProtocolMinor-1)
	fx, err := newFixture(cell, cfg)
	if err != nil {
		return nil, err
	}
	defer fx.close()

	D := cfg.Duration
	tl := newTimeline(D+drainTimeout, 100*time.Millisecond)
	var mu sync.Mutex
	var events []ChaosEvent
	var serverSheds atomic.Uint64
	sched := func(start time.Time) {
		record := func(name string) {
			mu.Lock()
			events = append(events, ChaosEvent{AtSec: time.Since(start).Seconds(), Name: name})
			mu.Unlock()
			cfg.Logf("load: chaos %+6.2fs %s", time.Since(start).Seconds(), name)
		}
		at := func(frac float64) {
			if d := time.Until(start.Add(time.Duration(frac * float64(D)))); d > 0 {
				time.Sleep(d)
			}
		}
		victimAddr := cell.Nodes[victim].Addr

		at(0.10)
		cell.Net.SetLatency(chaosLatency, chaosJitter)
		record(fmt.Sprintf("wan-latency %v jitter %v", chaosLatency, chaosJitter))
		at(0.20)
		cell.Net.SetLoss(chaosLoss)
		record(fmt.Sprintf("loss %.0f%%", 100*chaosLoss))
		at(0.30)
		minority := []simnet.NodeID{cell.IDs[1]}
		majority := append(append([]simnet.NodeID{}, cell.IDs[:1]...), cell.IDs[2:]...)
		cell.Net.Partition(majority, minority)
		record(fmt.Sprintf("partition: %v isolated", cell.IDs[1]))
		at(0.45)
		cell.Net.Heal()
		record("heal")
		at(0.46)
		for i := range cell.Nodes {
			cell.Nodes[i].Server.SetMaxInflight(1)
		}
		record("overload squeeze: max-inflight 1 on every server")
		at(0.53)
		var squeezed uint64
		for i := range cell.Nodes {
			squeezed += cell.Nodes[i].Server.ShedCount()
			cell.Nodes[i].Server.SetMaxInflight(0)
		}
		serverSheds.Store(squeezed)
		record(fmt.Sprintf("overload squeeze cleared: %d requests shed", squeezed))
		at(0.55)
		// Arm a torn-commit crash so the node dies with a half-written wal
		// frame, then give the live load a moment to drive a group commit
		// into it. If traffic happens to miss the victim's store in that
		// window the crash still proceeds, just untorn.
		vlog.inj.Arm(store.CrashTornCommit, 1)
		fireBy := time.Now().Add(2 * time.Second)
		for len(vlog.inj.Fired()) == 0 && time.Now().Before(fireBy) {
			time.Sleep(5 * time.Millisecond)
		}
		st := cell.CrashNFS(victim)
		if len(vlog.inj.Fired()) > 0 {
			record(fmt.Sprintf("crash %v mid-group-commit (torn wal frame)", cell.IDs[victim]))
		} else {
			record(fmt.Sprintf("crash %v", cell.IDs[victim]))
		}
		at(0.70)
		st.Close()
		ls, err := store.OpenLog(vlog.dir, store.LogOptions{})
		if err != nil {
			record(fmt.Sprintf("log recovery FAILED: %v", err))
		} else {
			lst := ls.Stats()
			record(fmt.Sprintf("log recovered: %d commits replayed (ckpt seq %d), torn tail truncated", lst.Seq-lst.CheckpointSeq, lst.CheckpointSeq))
			st = ls
		}
		if _, err := cell.RestartNFSNode(victim, st, victimAddr, cellParams()); err != nil {
			record(fmt.Sprintf("restart %v FAILED: %v", cell.IDs[victim], err))
		} else {
			record(fmt.Sprintf("restart %v on %s", cell.IDs[victim], victimAddr))
		}
		cell.Net.SetLatency(0, 0)
		cell.Net.SetLoss(0)
		record("clear wan-latency and loss")
	}

	cfg.Logf("load: chaos run (%.0f ops/s for %v)", cfg.Rate, D)
	mr := runMix(cell, fx, &mixHooks{timeline: tl, background: sched})

	cr := &ChaosResult{MixResult: *mr, Events: events}
	for sec := 0; float64(sec) < D.Seconds()+2; sec++ {
		ok, bad := tl.window(time.Duration(sec)*time.Second, time.Duration(sec+1)*time.Second)
		if ok+bad > 0 || float64(sec) < D.Seconds() {
			cr.Trace = append(cr.Trace, TraceBucket{Sec: sec, Ok: ok, Bad: bad})
		}
	}
	attempted := mr.Completed + mr.Errored + mr.Shed
	if attempted > 0 {
		cr.ErrorFraction = float64(mr.Errored+mr.Shed) / float64(attempted)
	}
	// Recovery window: nominally the tail of the schedule at 0.85 D, but
	// anchored to when the last repair actually landed — on a loaded box
	// the scheduler can fire events late, and judging recovery before the
	// system got its settle time (0.15 D after the restart) would measure
	// the harness's lateness, not the system's resilience. The floor keeps
	// at least a second of window even after a very late restart.
	from, to := time.Duration(0.85*float64(D)), D
	var lastFault time.Duration
	if n := len(events); n > 0 {
		lastFault = time.Duration(events[n-1].AtSec * float64(time.Second))
		if anchored := lastFault + time.Duration(0.15*float64(D)); anchored > from {
			from = anchored
		}
	}
	if floor := D - time.Second; from > floor && floor > 0 {
		from = floor
	}
	ok, bad := tl.window(from, to)
	win := (to - from).Seconds()
	cr.Recovery = RecoveryStats{
		WindowStartSec: from.Seconds(),
		WindowSec:      win,
		Completed:      ok,
		Errored:        bad,
		Throughput:     float64(ok) / win,
	}
	if ok+bad > 0 {
		cr.Recovery.ErrorFraction = float64(bad) / float64(ok+bad)
	}

	if cr.ErrorFraction > maxErrorFraction {
		cr.Violations = append(cr.Violations, fmt.Sprintf(
			"error fraction %.2f exceeds %.2f across the whole run",
			cr.ErrorFraction, maxErrorFraction))
	}
	if cr.Recovery.ErrorFraction > recoveryMaxErrorFraction {
		cr.Violations = append(cr.Violations, fmt.Sprintf(
			"recovery-window error fraction %.2f exceeds %.2f: did not recover within %.1fs of the last fault",
			cr.Recovery.ErrorFraction, recoveryMaxErrorFraction, (from-lastFault).Seconds()))
	}
	if sheds := serverSheds.Load(); sheds == 0 {
		cr.Violations = append(cr.Violations,
			"overload squeeze shed nothing: admission control never engaged")
	} else if cr.Errors[derr.Overloaded.String()] == 0 {
		cr.Violations = append(cr.Violations, fmt.Sprintf(
			"servers shed %d requests but clients recorded no typed %q errors: the Overloaded code was lost on the wire",
			sheds, derr.Overloaded))
	}
	minTput := recoveryMinThroughputFraction * cfg.Rate
	if cr.Recovery.Throughput < minTput {
		cr.Violations = append(cr.Violations, fmt.Sprintf(
			"recovery-window throughput %.1f ops/s below %.1f (%.0f%% of the %.0f ops/s offered)",
			cr.Recovery.Throughput, minTput, 100*recoveryMinThroughputFraction, cfg.Rate))
	}
	cr.Graceful = len(cr.Violations) == 0
	return cr, nil
}
