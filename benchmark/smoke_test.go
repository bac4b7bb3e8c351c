package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

// TestSmoke runs every workload for 300 ms (one workload with -short), with
// tracing off and on, and requires the metric names printed to be exactly
// those BENCHMARK.json declares, and every output check to pass.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkFile
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
	}
	var coded []string
	for _, w := range workloads {
		coded = append(coded, w.name)
	}
	if !slices.Equal(declared, coded) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark has %v", declared, coded)
	}
	want := map[bool][]string{}
	for _, m := range decl.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range decl.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	run := workloads
	if testing.Short() {
		run = []*workload{workloadByName("meta-churn")}
	}
	for _, w := range run {
		for _, trace := range []bool{false, true} {
			name := w.name + "/end-to-end"
			if trace {
				name = w.name + "/per-layer"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := runWorkload(&config{
					w: w, seed: 1, window: 300 * time.Millisecond, trace: trace, setups: 1,
					baseDir: dir, traceOut: dir, out: io.Discard,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got []string
				for name := range res.Metrics {
					got = append(got, name)
					if !valid.MatchString(name) {
						t.Errorf("metric name %q is not made of [A-Za-z0-9_.-]", name)
					}
				}
				for _, name := range got {
					if !slices.Contains(want[trace], name) {
						t.Errorf("printed %s, which BENCHMARK.json does not declare", name)
					}
				}
				for _, name := range want[trace] {
					if !slices.Contains(got, name) {
						t.Errorf("BENCHMARK.json declares %s, which was not printed", name)
					}
				}
				if left, _ := os.ReadDir(dir); trace && len(left) != 1 || !trace && len(left) != 0 {
					t.Errorf("run left %d entries in its directory", len(left))
				}
			})
		}
	}
}
