package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"gavel/internal/obs"
)

// metricDef names one reported metric. The lists below are the benchmark's
// contract; BENCHMARK.json at the repository root repeats them.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are reported by every workload with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"rounds_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"round_tail_ms", "ms", "lower"},
	{"alloc_p50_ms", "ms", "lower"},
	{"alloc_tail_ms", "ms", "lower"},
	{"avg_jct_h", "h", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are reported by every workload's traced run; a layer the
// workload does not exercise reads 0.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"simulator.self_ms", "ms", "lower"},
		{"simulator.rounds", "count", "lower"},
		{"simulator.resets", "count", "lower"},
		{"simulator.makespan_h", "h", "lower"},
		{"policy.allocate_ms", "ms", "lower"},
		{"policy.build_ms", "ms", "lower"},
		{"policy.calls", "count", "lower"},
		{"policy.jobs_per_call", "count", "lower"},
		{"policy.units_per_call", "count", "lower"},
		{"policy.pair_unit_share", "ratio", "lower"},
		{"lp.solve_ms", "ms", "lower"},
		{"lp.solves", "count", "lower"},
		{"lp.iterations", "count", "lower"},
		{"lp.iterations_per_solve", "count", "lower"},
		{"lp.cold_solves", "count", "lower"},
		{"lp.warm_ratio", "ratio", "higher"},
		{"lp.dual_iterations", "count", "lower"},
		{"lp.refactorizations", "count", "lower"},
		{"lp.presolve_reductions", "count", "higher"},
		{"lp.fallbacks", "count", "lower"},
		{"cluster.alloc_phase_ms", "ms", "lower"},
		{"cluster.parallel_ratio", "ratio", "higher"},
		{"cluster.shard_skew", "ratio", "lower"},
		{"cluster.migrations", "count", "lower"},
		{"cluster.remapped_solves", "count", "lower"},
	}
	for _, meth := range rpcMethods {
		m = append(m, metricDef{"rpc." + meth + "_ms", "ms", "lower"}, metricDef{"rpc." + meth + "_calls", "count", "lower"})
	}
	return append(m, []metricDef{
		{"rpc.wire_ms", "ms", "lower"},
		{"rpc.calls_per_round", "count", "lower"},
		{"rpc.retries", "count", "lower"},
		{"journal.appends_per_round", "count", "lower"},
		{"journal.bytes_per_round", "B", "lower"},
		{"journal.fsyncs", "count", "lower"},
		{"journal.fsync_p50_ms", "ms", "lower"},
		{"journal.fsync_ms", "ms", "lower"},
		{"journal.replay_records", "count", "lower"},
		{"journal.replay_s", "s", "lower"},
		{"ingress.submit_p50_ms", "ms", "lower"},
		{"ingress.submit_tail_ms", "ms", "lower"},
		{"ingress.poll_tail_ms", "ms", "lower"},
		{"ingress.admit_delay_p50_ms", "ms", "lower"},
		{"ingress.max_submit_rate", "1/s", "higher"},
		{"ingress.end_round_ms", "ms", "lower"},
		{"ingress.admit_pending_ms", "ms", "lower"},
		{"ingress.queue_depth_max", "count", "lower"},
		{"ingress.admitted_per_round", "count", "higher"},
		{"ingress.refused", "count", "lower"},
		{"ingress.shed", "count", "lower"},
		{"ingress.quarantined_tenants", "count", "lower"},
		{"ingress.generator_lag_ms", "ms", "lower"},
		{"ingress.lagged_steps", "count", "lower"},
		{"bench.trace_overhead", "ratio", "lower"},
	}...)
}()

// fillLayers reports every per-layer metric the workload left unset as 0:
// the workload does not exercise that layer.
func fillLayers(rep *report) {
	for _, m := range perLayer {
		if _, ok := rep.get(m.Name); !ok {
			rep.add(m.Name, 0, m.Unit, "layer not exercised")
		}
	}
}

// unitOf is a per-layer metric's unit.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.Name == name {
			return m.Unit
		}
	}
	for _, m := range endToEnd {
		if m.Name == name {
			return m.Unit
		}
	}
	return "?"
}

// set adds a per-layer metric with its catalogued unit.
func (r *report) set(name string, v float64, note string) { r.add(name, v, unitOf(name), note) }

// series is a scrape of the telemetry plane's registry: Prometheus text
// series keyed by name plus labels.
type series map[string]float64

func scrape(p *obs.Plane) (series, error) {
	out := series{}
	var buf bytes.Buffer
	if err := p.Registry().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of the family name, whatever its labels.
func (s series) sum(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// lpLayers reads the LP core's live series.
func lpLayers(rep *report, s series) {
	cold := s[`gavel_lp_solves_total{kind="cold"}`]
	warm := s[`gavel_lp_solves_total{kind="warm"}`] + s[`gavel_lp_solves_total{kind="remap"}`]
	solves := cold + warm
	iters := s.sum("gavel_lp_iterations_total")
	rep.set("lp.solve_ms", s["gavel_lp_solve_seconds_sum"]*1000, "gavel_lp_solve_seconds sum")
	rep.set("lp.solves", solves, "")
	rep.set("lp.iterations", iters, "")
	rep.set("lp.iterations_per_solve", ratio(iters, solves), "")
	rep.set("lp.cold_solves", cold, "")
	rep.set("lp.warm_ratio", ratio(warm, solves), "(warm + remapped) / solves")
	rep.set("lp.dual_iterations", s.sum("gavel_lp_dual_iterations_total"), "")
	rep.set("lp.refactorizations", s.sum("gavel_lp_refactorizations_total"), "")
	rep.set("lp.presolve_reductions", s.sum("gavel_lp_presolve_reductions_total"), "")
	rep.set("lp.fallbacks", s[`gavel_lp_solves_total{kind="fallback"}`], "")
	rep.set("cluster.remapped_solves", s[`gavel_lp_solves_total{kind="remap"}`], "")
}

// policyLayers reports Allocate time and size; allocMS must exclude wire
// time (the shard server's own spans on the service engine), and lp.solve_ms
// must already be set.
func policyLayers(rep *report, allocMS float64, calls, jobs, units, pairs int) {
	lpMS, _ := rep.get("lp.solve_ms")
	rep.set("policy.allocate_ms", allocMS, "")
	rep.set("policy.build_ms", max(allocMS-lpMS.Value, 0), "allocate time - lp.solve_ms")
	rep.set("policy.calls", float64(calls), "")
	rep.set("policy.jobs_per_call", ratio(float64(jobs), float64(calls)), "")
	rep.set("policy.units_per_call", ratio(float64(units), float64(calls)), "")
	rep.set("policy.pair_unit_share", ratio(float64(pairs), float64(units)), "")
}

// clusterLayers reads the concurrent allocation phases: spans named call
// that overlap in time form one phase.
func clusterLayers(rep *report, ix *spanIndex, call string) {
	var wall, busy time.Duration
	phases := 0
	var hi int64
	perShard := map[int]time.Duration{}
	for _, sp := range ix.named(call) { // ordered by start
		if phases == 0 || sp.Start >= hi {
			phases++
			hi = sp.Start
		}
		if sp.End > hi {
			wall += time.Duration(sp.End - max(hi, sp.Start))
			hi = sp.End
		}
		busy += sp.dur()
		perShard[sp.Shard] += sp.dur()
	}
	var slowest, total time.Duration
	for _, d := range perShard {
		slowest = max(slowest, d)
		total += d
	}
	rep.set("cluster.alloc_phase_ms", ms(wall), fmt.Sprintf("%d phases", phases))
	rep.set("cluster.parallel_ratio", ratio(float64(busy), float64(wall)), "summed shard Allocate time / phase wall time")
	rep.set("cluster.shard_skew", ratio(float64(slowest)*float64(len(perShard)), float64(total)), "slowest shard's Allocate time / mean")
}

// serverSpans pairs each client-side call with the shard server's own span
// name for it.
var serverSpans = map[string]string{
	"install": "shard.install", "allocate": "shard.allocate", "assign_round": "shard.assign", "extract": "shard.extract",
}

// rpcLayers reads the coordinator-side shard calls.
func rpcLayers(rep *report, ix *spanIndex, calls *shardCallStats, s series, rounds int) {
	for _, m := range rpcMethods {
		d := calls.durations(m)
		rep.set("rpc."+m+"_ms", sum(d), "client side")
		rep.set("rpc."+m+"_calls", float64(len(d)), "")
	}
	client, server := 0.0, 0.0
	for m, srv := range serverSpans {
		client += sum(calls.durations(m))
		server += ix.totalMS(srv)
	}
	rep.set("rpc.wire_ms", max(client-server, 0), "client call time - shard server span time")
	rep.set("rpc.calls_per_round", ratio(float64(calls.total()), float64(rounds)), "")
	rep.set("rpc.retries", s.sum("gavel_rpc_retries_total"), "")
}

// journalLayers reads the journal's series and spans, and what the
// benchmark measured of its files and replays.
func journalLayers(rep *report, ix *spanIndex, s series, rounds int, files []journalStats, replays []float64) {
	var bytes int64
	records := 0
	for _, f := range files {
		bytes += f.bytes
		records += f.records
	}
	rep.set("journal.appends_per_round", ratio(s.sum("gavel_journal_appends_total"), float64(rounds)), "")
	rep.set("journal.bytes_per_round", ratio(float64(bytes), float64(rounds)), "journal file size / rounds")
	rep.set("journal.fsyncs", s.sum("gavel_journal_fsyncs_total"), "")
	rep.set("journal.fsync_p50_ms", median(ix.durationsMS("journal.commit")), "journal.commit spans")
	rep.set("journal.fsync_ms", ix.totalMS("journal.commit"), "journal.commit spans, summed")
	rep.set("journal.replay_records", float64(records), "frames in the closed journals")
	rep.set("journal.replay_s", median(replays), fmt.Sprintf("median of %d replays", len(replays)))
}
