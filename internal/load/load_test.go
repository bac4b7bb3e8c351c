package load

import (
	"strings"
	"testing"
	"time"
)

// smokeConfig is the short healthy-cell shape: one Zipf-skewed mix that
// issues every op class, so a few hot files see token and lease contention
// while readdir and getattr ride alongside.
func smokeConfig(t *testing.T) Config {
	return Config{
		Agents:   8,
		Rate:     120,
		Duration: 1500 * time.Millisecond,
		Files:    16,
		Mix: Mix{
			Weights: map[OpClass]int{OpRead: 50, OpWrite: 25, OpGetattr: 15, OpReaddir: 10},
			Zipfian: true,
		},
		Logf: t.Logf,
	}
}

// TestLoadSmokeAllMixes drives every op class through the whole NFS stack
// from concurrent agents (~2s): the harness must sustain the offered rate on
// a healthy cell with a clean error ledger.
func TestLoadSmokeAllMixes(t *testing.T) {
	cfg := smokeConfig(t)
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Completed == 0 {
		t.Fatal("no ops completed")
	}
	if m.Completed+m.Errored+m.Shed != m.Offered {
		t.Errorf("ledger does not balance: %d+%d+%d != %d", m.Completed, m.Errored, m.Shed, m.Offered)
	}
	// A healthy unsaturated cell must absorb nearly everything offered.
	if frac := float64(m.Errored+m.Shed) / float64(m.Offered); frac > 0.05 {
		t.Errorf("error fraction %.2f on a healthy cell (errors: %v)", frac, m.Errors)
	}
	if m.Throughput < 0.5*cfg.Rate {
		t.Errorf("throughput %.1f below half the offered %.1f ops/s", m.Throughput, cfg.Rate)
	}
	if m.Net.Sent == 0 {
		t.Error("no simnet traffic recorded")
	}
}

// TestLoadOpenLoopOfferedIsFixed pins the open-loop property: offered load
// is a function of rate and duration alone, never of completions — a
// saturated system sees queueing, not a throttled generator.
func TestLoadOpenLoopOfferedIsFixed(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.Rate = 400
	cfg.Duration = 250 * time.Millisecond
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(cfg.Rate * cfg.Duration.Seconds())
	if m.Offered != want {
		t.Errorf("offered = %d, want exactly %d: open loop must not throttle arrivals", m.Offered, want)
	}
}

// TestPickerDeterministicAndZipfSkewed: one seed replays one draw sequence,
// and a Zipfian mix concentrates its draws on a hot file.
func TestPickerDeterministicAndZipfSkewed(t *testing.T) {
	mix := Mix{Weights: map[OpClass]int{OpRead: 80, OpWrite: 20}, Zipfian: true}
	draw := func(seed int64) ([]OpClass, []int) {
		p := newPicker(mix, 64, seed)
		var classes []OpClass
		var files []int
		for i := 0; i < 2000; i++ {
			c, f, off := p.next()
			if f < 0 || f >= 64 {
				t.Fatalf("file %d out of range", f)
			}
			if off < 0 || off > fileSize-opBytes {
				t.Fatalf("offset %d out of range", off)
			}
			classes = append(classes, c)
			files = append(files, f)
		}
		return classes, files
	}
	c1, f1 := draw(42)
	c2, f2 := draw(42)
	for i := range c1 {
		if c1[i] != c2[i] || f1[i] != f2[i] {
			t.Fatalf("same seed diverged at %d: (%s,%d) vs (%s,%d)", i, c1[i], f1[i], c2[i], f2[i])
		}
	}
	// Zipfian skew: the single hottest file absorbs a large share.
	counts := make(map[int]int)
	for _, f := range f1 {
		counts[f]++
	}
	if counts[0] < len(f1)/4 {
		t.Errorf("hot key got %d/%d draws; zipf should concentrate load", counts[0], len(f1))
	}
	// Weights respected roughly: the mix is 80/20 read/write.
	reads := 0
	for _, c := range c1 {
		if c == OpRead {
			reads++
		}
	}
	if frac := float64(reads) / float64(len(c1)); frac < 0.7 || frac > 0.9 {
		t.Errorf("read fraction = %.2f, want ~0.8", frac)
	}
}

// TestChaosGracefulDegradation is the acceptance run: injected WAN latency,
// loss, a partition/heal, and a crash/rejoin land on a running mixed load,
// and the system must keep its error rate bounded and recover to steady
// throughput before the run ends — not merely avoid crashing.
func TestChaosGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run needs ~20s of wall clock")
	}
	// 16s gives the post-restart recovery ~2.4s of settle before the window
	// opens; rejoin triggers regeneration whose cost varies run to run.
	c, err := RunChaos(Config{
		Agents:   24,
		Rate:     150,
		Duration: 16 * time.Second,
		Files:    48,
		Mix:      Mix{Weights: map[OpClass]int{OpRead: 60, OpWrite: 30, OpGetattr: 10}},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) < 7 {
		t.Errorf("only %d chaos events fired: %+v", len(c.Events), c.Events)
	}
	// The crash must have landed mid-group-commit (torn wal frame) and the
	// restart must have recovered the victim's log store from disk.
	var torn, recovered bool
	for _, e := range c.Events {
		if strings.Contains(e.Name, "mid-group-commit") {
			torn = true
		}
		if strings.Contains(e.Name, "log recovered") {
			recovered = true
		}
	}
	if !torn {
		t.Error("crash was not mid-group-commit: torn-commit injector never fired")
	}
	if !recovered {
		t.Error("restart did not recover the victim's log store from checkpoint+log")
	}
	for _, v := range c.Violations {
		t.Errorf("graceful-degradation violation: %s", v)
	}
	if !c.Graceful {
		t.Errorf("chaos run not graceful: error fraction %.2f, recovery %+v",
			c.ErrorFraction, c.Recovery)
		for _, b := range c.Trace {
			t.Logf("  trace %3ds: %3d ok %3d bad", b.Sec, b.Ok, b.Bad)
		}
	}
	// The faults must actually have been felt: a 2% loss + partition +
	// crash window with zero dropped messages means chaos never landed.
	if c.Net.Dropped == 0 {
		t.Error("chaos run dropped no simnet messages; injection did not land")
	}
}
