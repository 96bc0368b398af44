// Command perfbench is the repository's benchmark: it runs one of its
// seeded workloads through the scheduler's public Go API, checks the
// outputs, and prints its metrics by name with units. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// workload runs twice, untraced and then with spans recorded at every layer
// boundary, and the metrics are the per-layer ones. Workloads, metrics, and
// which end-to-end metric each layer metric should move are described in
// README.md beside this file.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-las-large --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/workload"
)

// setupReps is how many times a run rehearses its set-up; setup_s is the
// median.
const setupReps = 101

// workloads are the benchmark's inputs by name.
var workloads = map[string]func() benchWorkload{
	"sim-las-large": func() benchWorkload {
		return &simWorkload{
			cluster: cluster.Simulated108().Scaled(4),
			trace: func(seed int64) []workload.Job {
				return workload.GenerateTrace(workload.TraceOptions{
					NumJobs: 600, MultiWorker: true, DurationMaxMinutes: 1000, Seed: seed,
				})
			},
			traces: 9,
		}
	},
	"sim-sharded-ss": func() benchWorkload {
		return &simWorkload{
			cluster: cluster.Simulated108().Scaled(2),
			trace: func(seed int64) []workload.Job {
				return workload.GenerateTrace(workload.TraceOptions{
					NumJobs: 300, DurationMaxMinutes: 1000, Seed: seed,
				})
			},
			traces:       12,
			shards:       2,
			route:        cluster.RouteLeastLoaded,
			rebalance:    10,
			spaceSharing: true,
		}
	},
	"svc-journal": func() benchWorkload {
		return &simWorkload{
			cluster: cluster.Simulated108(),
			trace: func(seed int64) []workload.Job {
				short := workload.TraceOptions{DurationMaxMinutes: 1000}
				return workload.GenerateTenantTrace(seed, []workload.TenantSpec{
					{Name: "tenant-a", NumJobs: 40, SLOClass: 0, Trace: short},
					{Name: "tenant-b", NumJobs: 40, SLOClass: 1, Trace: short},
					{Name: "tenant-liar", NumJobs: 40, SLOClass: 2, DeclareFactor: 3, Trace: short},
				})
			},
			traces:       8,
			shards:       2,
			spaceSharing: true,
			service:      true,
			misreporter:  "tenant-liar",
		}
	},
	"ingress-open": func() benchWorkload {
		return &ingressWorkload{
			cluster:  cluster.Simulated108(),
			shards:   2,
			tenants:  4,
			resident: 32,
			life:     8,
			tick:     10 * time.Millisecond,
			rates:    []float64{250, 500, 1000},
			shares:   []float64{10, 3, 3},
			refRate:  250,
			limitMS:  25,
			inflight: 256,
		}
	},
}

// ungated names the workloads that run and check like the others but are
// left out of BENCHMARK.json, with the reason: a workload there must repeat
// within its bounds from run to run.
var ungated = map[string]string{
	"ingress-open": "its round-loop timings are dominated by journal fsync latency, " +
		"which moved them by 25-41% (quartile spread over ten seeds) on a 2-vCPU host with a shared disk",
}

// benchWorkload is one workload's run: rehearse its set-up, then measure.
type benchWorkload interface {
	// setup performs and tears down one complete set-up for a run of budget.
	setup(seed int64, budget time.Duration, dir string) error
	// run measures for about budget seconds (traced: half untraced, half
	// traced) and reports the end-to-end or per-layer metrics.
	run(seed int64, budget time.Duration, dir string, traced bool) (*report, *tally, []span, error)
}

// result is the last line of output.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(sortedKeys(workloads), ", "))
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
		out     = flag.String("out", ".bench_build/perfbench", "directory for journals and span logs")
	)
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(sortedKeys(workloads), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	code, err := run(*name, mk(), *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	os.Exit(code)
}

func run(name string, w benchWorkload, seed int64, budget time.Duration, traced bool, out string) (int, error) {
	dir := filepath.Join(out, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(dir)
	env, err := stampEnv(dir)
	if err != nil {
		return 1, err
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n# env %s\n", name, seed, budget.Seconds(), traced, env)
	if why, ok := ungated[name]; ok {
		fmt.Printf("# not in BENCHMARK.json: %s\n", why)
	}
	if memoryFS(env.JournalFS) {
		return 1, fmt.Errorf("journal directory %s is on %s, where fsync costs nothing; run from a disk-backed checkout", dir, env.JournalFS)
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := w.setup(seed, budget, dir); err != nil {
			return 1, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep, checks, spans, err := w.run(seed, budget, dir, traced)
	if err != nil {
		return 1, err
	}
	if !traced {
		rep.add("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		rss, err := peakRSSMB()
		if err != nil {
			return 1, err
		}
		rep.add("peak_rss_mb", rss, "MB", "VmHWM of this process")
	}

	res := result{Correct: checks.failed == 0, Attempted: checks.attempted, Failed: checks.failed,
		Metrics: map[string]map[string]any{}}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if res.Attempted == 0 {
		res.Correct = false
		checks.problems = append(checks.problems, "no operation was checked")
	}
	rep.add("failed_ratio", float64(checks.failed)/float64(max(checks.attempted, 1)), "ratio", "failed / attempted checked operations")
	kind := "end-to-end"
	if traced {
		kind = "per-layer"
		rep = rep.ordered(perLayer)
	}
	fmt.Printf("%s metrics:\n%s", kind, rep.table())
	fmt.Printf("checks: %d attempted, %d failed\n", checks.attempted, checks.failed)
	for _, p := range checks.problems {
		fmt.Printf("  FAIL %s\n", p)
	}
	for _, m := range want {
		v, ok := rep.get(m.Name)
		if !ok {
			return 1, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = map[string]any{"value": v.Value, "unit": m.Unit}
	}
	if traced {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := writeSpans(path, env, spans); err != nil {
			return 1, fmt.Errorf("write span log: %w", err)
		}
		fmt.Printf("span log: %s (%d spans)\n", path, len(spans))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1, fmt.Errorf("%d of %d checked operations failed", checks.failed, checks.attempted)
	}
	return 0, nil
}
