package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"gavel/internal/workload"
)

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	var want []string
	for _, n := range sortedKeys(workloads) {
		if _, ok := ungated[n]; !ok {
			want = append(want, n)
		}
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program gates %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v\nprogram emits %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v\nprogram emits %+v", b.PerLayer, perLayer)
	}
}

// small returns a simulator workload cut down to n evenly strided jobs of one
// sub-trace, so every tenant keeps some.
func small(name string, n int) *simWorkload {
	w := workloads[name]().(*simWorkload)
	full := w.trace
	w.trace = func(seed int64) []workload.Job {
		jobs := full(seed)
		out := make([]workload.Job, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, jobs[i*len(jobs)/n])
		}
		return out
	}
	w.traces = 1
	return w
}

// TestDeterministicSmallRuns runs small versions of the simulator workloads
// twice on each of two seeds: every check passes and the deterministic
// outputs agree.
func TestDeterministicSmallRuns(t *testing.T) {
	cases := map[string]int{"sim-las-large": 80, "sim-sharded-ss": 60, "svc-journal": 45}
	for name, n := range cases {
		for _, seed := range []int64{1, 2} {
			var first []map[string]float64
			for run := 0; run < 2; run++ {
				s, err := small(name, n).measure(seed, 0, t.TempDir(), false)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if s.check.failed > 0 || s.check.attempted == 0 {
					t.Fatalf("%s seed %d: %d of %d checks failed: %v", name, seed, s.check.failed, s.check.attempted, s.check.problems)
				}
				if run == 0 {
					first = s.fingerprints
				} else if !reflect.DeepEqual(s.fingerprints, first) {
					t.Errorf("%s seed %d: runs disagree:\n%v\n%v", name, seed, first, s.fingerprints)
				}
			}
		}
	}
}

// TestIngressShortLadder runs a short, light ladder: every submission is
// acknowledged, polled consistently, retired, and replayed.
func TestIngressShortLadder(t *testing.T) {
	w := workloads["ingress-open"]().(*ingressWorkload)
	w.rates, w.shares, w.refRate = []float64{50, 100}, []float64{1, 1}, 100
	s, err := w.measure(1, 2*time.Second, t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	if s.check.failed > 0 || s.check.attempted < len(s.reqs) {
		t.Fatalf("%d of %d checks failed: %v", s.check.failed, s.check.attempted, s.check.problems)
	}
	rep, err := w.layers(s, s)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range perLayer {
		if _, ok := rep.get(m.Name); !ok {
			t.Errorf("per-layer metric %s missing", m.Name)
		}
	}
	if v, _ := rep.get("journal.replay_records"); v.Value == 0 {
		t.Errorf("no journal records counted")
	}
}
