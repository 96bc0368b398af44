package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync/atomic"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/core"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/scheduler"
	"gavel/internal/simulator"
	"gavel/internal/workload"
)

// simWorkload is a workload driven through simulator.Run: the monolithic
// loop, the in-process sharded engine, or the cluster-service engine over
// loopback shard servers with a journal and the submission plane.
type simWorkload struct {
	cluster      cluster.Spec
	trace        func(seed int64) []workload.Job
	traces       int // sub-traces per cycle
	shards       int // in-process shards; 0 runs the monolithic loop
	route        cluster.RoutePolicy
	rebalance    int
	spaceSharing bool

	// service runs the cluster-service engine over `shards` loopback TCP
	// shard servers, journaled, with default admission through the
	// submission plane.
	service bool
	// misreporter is the one tenant whose declarations the trust review
	// must quarantine ("" when no tenant lies).
	misreporter string
}

// pairGainThreshold matches the simulator's pair-candidate threshold, so the
// replayed service is configured exactly as the one the run built.
const pairGainThreshold = 1.05

// simRep is one simulator.Run of the workload, with what the benchmark
// observed around it.
type simRep struct {
	cycle    int
	wall     time.Duration
	res      *simulator.Result
	roundsMS []float64
	allocMS  []float64
	replay   time.Duration
	journal  journalStats
	fp       map[string]float64 // deterministic outputs
}

// simSample is every repetition of a measuring phase.
type simSample struct {
	reps   []simRep
	policy *timedPolicy
	calls  *shardCallStats
	plane  *obs.Plane
	rec    *recorder
	check  tally
	// fingerprints holds each sub-trace's deterministic outputs from the
	// first cycle.
	fingerprints []map[string]float64
}

// roundClock turns OnRound callbacks into round boundaries: shards report a
// round one by one with the same simulated time, and a round ends when the
// time changes. The open round is the parent of every span recorded in it.
type roundClock struct {
	rec     *recorder
	last    time.Time
	now     float64
	started bool
	n       int64
	spanID  int64
	trace   atomic.Pointer[string]
	gapsMS  []float64
	// hook is time spent in the benchmark's own OnRound work since the last
	// boundary; it is not the program's and is taken out of the round (and
	// recorded as a bench.check child span, so self times exclude it too).
	hook    time.Duration
	traceOf func() string // trace ID of the round just closed, when the program minted one
}

func (c *roundClock) tick(now float64, t time.Time) {
	if c.started && now == c.now {
		return
	}
	if c.started {
		c.gapsMS = append(c.gapsMS, ms(t.Sub(c.last)-c.hook))
		tr := *c.trace.Load()
		if c.traceOf != nil {
			tr = c.traceOf()
		}
		c.rec.add(span{ID: c.spanID, Name: "sim.round", Trace: tr}, c.last, t)
	}
	c.started, c.now, c.last, c.hook = true, now, t, 0
	c.n++
	tr := obs.RoundTrace(c.n)
	c.trace.Store(&tr)
	c.spanID = c.rec.id()
	c.rec.setCurrent(c.spanID)
}

func (c *roundClock) currentTrace() string {
	if p := c.trace.Load(); p != nil {
		return *p
	}
	return ""
}

// loopbackShards starts n shard servers on loopback TCP and dials each.
func loopbackShards(n int, plane *obs.Plane) ([]*rpc.ShardServer, []rpc.ShardClient, error) {
	var srvs []*rpc.ShardServer
	var clients []rpc.ShardClient
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
		for _, s := range srvs {
			s.Close()
		}
	}
	for k := 0; k < n; k++ {
		srv := rpc.NewShardServer()
		srv.SetObs(plane)
		addr, err := srv.Serve("127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("serve shard %d: %w", k, err)
		}
		srvs = append(srvs, srv)
		c, err := rpc.DialShard(addr)
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial shard %d: %w", k, err)
		}
		clients = append(clients, c)
	}
	return srvs, clients, nil
}

func closeServers(srvs []*rpc.ShardServer) {
	for _, s := range srvs {
		s.Close()
	}
}

// measure runs cycles of the workload until budget would be exceeded (at
// least one cycle). A cycle runs the workload once on each of its sub-traces,
// seeded from seed, so every run pools the same mix of inputs however many
// cycles fit. Every cycle after the first must reproduce the first one's
// deterministic outputs. On the service engine the first cycle then replays
// its journals: after its runs rather than between them, so no timed run
// follows a replay's allocations, and outside the time the next cycle is
// expected to take.
func (w *simWorkload) measure(seed int64, budget time.Duration, dir string, traced bool) (*simSample, error) {
	s := &simSample{calls: newShardCallStats()}
	if traced {
		s.rec = newRecorder()
		s.plane = newPlane(s.rec)
	}
	clock := &roundClock{rec: s.rec}
	if w.service {
		clock.traceOf = s.calls.lastTraceOf
	}
	s.policy = newTimedPolicy(&policy.MaxMinFairness{}, s.rec, clock.currentTrace)
	begin := time.Now()
	var cycle time.Duration
	for c := 0; c == 0 || time.Since(begin)+cycle <= budget; c++ {
		cycleStart := time.Now()
		for i := 0; i < w.traces; i++ {
			rep, err := w.once(subSeed(seed, i), s, clock, journalPath(dir, i))
			if err != nil {
				return nil, err
			}
			rep.cycle = c
			s.reps = append(s.reps, rep)
			fp := rep.fp
			if c == 0 {
				s.fingerprints = append(s.fingerprints, fp)
				continue
			}
			s.check.check(reflect.DeepEqual(fp, s.fingerprints[i]),
				"cycle %d, trace %d is not deterministic: %v vs %v", c, i, fp, s.fingerprints[i])
		}
		cycle = time.Since(cycleStart)
		// Only the first cycle replays its journals: a replay costs about as
		// much as the run it replays.
		if c == 0 && w.service {
			for i := range s.reps {
				if err := w.replay(s, &s.reps[i], subSeed(seed, i), journalPath(dir, i)); err != nil {
					return nil, err
				}
			}
		}
	}
	return s, nil
}

// journalPath is the journal of a workload's i-th sub-trace. Each run
// replaces the file its sub-trace's previous run left.
func journalPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%d", i))
}

// subSeed derives the seed of a workload's i-th sub-trace.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// fingerprint holds the outputs that must be identical for a seed.
func (w *simWorkload) fingerprint(rep simRep) map[string]float64 {
	fp := map[string]float64{
		"avg_jct_h":            rep.res.AvgJCT(0),
		"simulator.makespan_h": rep.res.Makespan / 3600,
		"simulator.resets":     float64(rep.res.PolicyCalls),
		"lp.solves":            float64(rep.res.LPSolves),
		"lp.iterations":        float64(rep.res.SimplexIterations),
		"cluster.migrations":   float64(rep.res.Migrations),
	}
	if w.service {
		// The frame count, not the byte size: snapshot records carry the
		// shards' wall-clock PolicyTime, so sizes differ by a few bytes
		// between identical runs.
		fp["journal.records"] = float64(rep.journal.records)
	}
	return fp
}

func (w *simWorkload) once(seed int64, s *simSample, clock *roundClock, journal string) (simRep, error) {
	var rep simRep
	trace := w.trace(seed)
	var srvs []*rpc.ShardServer
	var clients []rpc.ShardClient
	if w.service {
		var err error
		srvs, clients, err = loopbackShards(w.shards, s.plane)
		if err != nil {
			return rep, err
		}
		defer closeServers(srvs)
		os.Remove(journal)
	}

	sorted := append([]workload.Job(nil), trace...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Arrival < sorted[b].Arrival })
	checker := newRoundChecker(workerInts(w.cluster))
	cfg := simulator.Config{
		Cluster:      w.cluster,
		Policy:       s.policy,
		Trace:        trace,
		SpaceSharing: w.spaceSharing,
		Seed:         seed,
		Obs:          s.plane,
		OnRound: func(now float64, alloc *core.Allocation, active []int, assigns []scheduler.Assignment) {
			t := time.Now()
			clock.tick(now, t)
			// Jobs are identified by their index in the arrival-sorted trace,
			// which is how the simulator indexes its job states.
			jobOf := func(local int) int { return active[local] }
			checker.observe(now, alloc, jobOf, func(si int) int { return sorted[si].ScaleFactor }, assigns)
			end := time.Now()
			clock.hook += end.Sub(t)
			s.rec.add(span{Name: "bench.check", Parent: s.rec.current()}, t, end)
		},
	}
	if w.shards > 0 && !w.service {
		cfg.NumShards = w.shards
		cfg.ShardRoute = w.route
		cfg.RebalanceEveryRounds = w.rebalance
	}
	if w.service {
		// The service engine resolves the policy by catalog name on the
		// shard servers, so the decorator sits on the shard clients instead.
		cfg.Policy = &policy.MaxMinFairness{}
		cfg.ShardClients = wrapShards(clients, s.rec, s.calls)
		cfg.ShardRoute = w.route
		cfg.RebalanceEveryRounds = w.rebalance
		cfg.Journal = journal
		cfg.Admission = &rpc.AdmissionConfig{}
	}

	clock.started = false
	allocsBefore := len(w.allocs(s))
	runStart := time.Now()
	res, err := simulator.Run(cfg)
	rep.wall = time.Since(runStart)
	rep.allocMS = w.allocs(s)[allocsBefore:]
	s.policy.endRun()
	s.rec.setCurrent(0)
	if err != nil {
		return rep, fmt.Errorf("simulator.Run: %w", err)
	}
	rep.res = res
	rep.roundsMS = clock.gapsMS
	clock.gapsMS = nil
	s.check.absorb(checker)
	s.check.ok(len(trace) - res.Unfinished)
	if res.Unfinished > 0 {
		s.check.fail(res.Unfinished, "%d of %d jobs unfinished", res.Unfinished, len(trace))
	}

	if w.service {
		if err := w.checkService(s, &rep, journal); err != nil {
			return rep, err
		}
	}
	// Keep the summary only: the per-job records would grow the heap from
	// one run to the next and change how often the next run collects.
	rep.fp = w.fingerprint(rep)
	rep.res.Jobs, rep.res.Decisions = nil, nil
	return rep, nil
}

// checkService verifies the submission plane's outcome and reads the closed
// journal's size.
func (w *simWorkload) checkService(s *simSample, rep *simRep, journal string) error {
	var quarantined []string
	for _, t := range rep.res.Tenants {
		if t.Quarantined {
			quarantined = append(quarantined, t.Tenant)
		}
		s.check.check(t.Refused == 0 && t.Shed == 0 && t.Withdrawn == 0,
			"tenant %s: %d refused, %d shed, %d withdrawn", t.Tenant, t.Refused, t.Shed, t.Withdrawn)
	}
	want := []string{}
	if w.misreporter != "" {
		want = []string{w.misreporter}
	}
	if quarantined == nil {
		quarantined = []string{}
	}
	s.check.check(reflect.DeepEqual(quarantined, want), "quarantined tenants %v, want %v", quarantined, want)

	js, err := readJournalStats(journal)
	if err != nil {
		return err
	}
	rep.journal = js
	return nil
}

// replay replays a run's closed journal into a fresh coordinator over fresh
// shard servers, checks that it reconstructs the live run's end state, and
// removes the journal.
func (w *simWorkload) replay(s *simSample, rep *simRep, seed int64, journal string) error {
	defer os.Remove(journal)
	sorted := w.trace(seed)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].Arrival < sorted[b].Arrival })

	// The replay runs without telemetry in both modes, so replay_s reads the
	// same whether or not the run is traced.
	start := time.Now()
	srvs, clients, err := loopbackShards(w.shards, nil)
	if err != nil {
		return err
	}
	defer closeServers(srvs)
	svc, err := rpc.NewService(rpc.ServiceConfig{
		Cluster:           w.cluster,
		Policy:            rpc.PolicySpec{Name: "max_min_fairness"},
		Route:             w.route,
		PairGainThreshold: pairGainThreshold,
		MaxPairsPerJob:    w.pairCap(),
		Journal:           journal,
		Admission:         &rpc.AdmissionConfig{},
	}, clients)
	rep.replay = time.Since(start)
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		s.check.fail(1, "replay: %v", err)
		return nil
	}
	defer svc.Close()
	// The live run retired every job, so the replayed coordinator must hold
	// no resident job and every submission must read Done under its key.
	s.check.check(len(svc.JobShards()) == 0, "replayed service holds %d resident jobs", len(svc.JobShards()))
	subs := svc.Submissions()
	done := map[string]bool{}
	for _, si := range subs {
		if si.State == rpc.SubmissionDone {
			done[si.Tenant+"/"+si.Key] = true
		}
	}
	missing := 0
	for _, j := range sorted {
		if !done[j.Tenant+"/"+fmt.Sprintf("job-%d", j.ID)] {
			missing++
		}
	}
	s.check.check(len(subs) == len(sorted) && missing == 0,
		"replayed %d submissions for %d jobs, %d not Done", len(subs), len(sorted), missing)
	return nil
}

func (w *simWorkload) pairCap() int {
	if w.spaceSharing {
		return 4
	}
	return 0
}

func workerInts(spec cluster.Spec) []int {
	out := make([]int, len(spec.Types))
	for j, t := range spec.Types {
		out[j] = t.Count
	}
	return out
}

func (w *simWorkload) setup(seed int64, _ time.Duration, dir string) error {
	for i := 0; i < w.traces; i++ {
		w.trace(subSeed(seed, i))
	}
	if !w.service {
		return nil
	}
	srvs, clients, err := loopbackShards(w.shards, nil)
	if err != nil {
		return err
	}
	for _, c := range clients {
		c.Close()
	}
	closeServers(srvs)
	return nil
}

func (w *simWorkload) run(seed int64, budget time.Duration, dir string, traced bool) (*report, *tally, []span, error) {
	if !traced {
		s, err := w.measure(seed, budget, dir, false)
		if err != nil {
			return nil, nil, nil, err
		}
		return w.endToEnd(s), &s.check, nil, nil
	}
	// One untraced and one traced cycle: the same work twice, so their wall
	// times give the tracing overhead.
	base, err := w.measure(seed, 0, dir, false)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := w.measure(seed, 0, dir, true)
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := w.layers(s, base)
	if err != nil {
		return nil, nil, nil, err
	}
	checks := base.check
	// Telemetry is an overlay: the traced cycle must decide exactly what the
	// untraced one did.
	checks.check(reflect.DeepEqual(s.fingerprints, base.fingerprints),
		"traced run is not deterministic against the untraced one: %v vs %v", s.fingerprints, base.fingerprints)
	checks.attempted += s.check.attempted
	checks.failed += s.check.failed
	checks.problems = append(checks.problems, s.check.problems...)
	return rep, &checks, s.rec.snapshot(), nil
}

// allocs is the workload's allocation-recompute timings so far:
// Policy.Allocate in process, ShardClient.Allocate on the service engine.
func (w *simWorkload) allocs(s *simSample) []float64 {
	if w.service {
		return s.calls.durations("allocate")
	}
	s.policy.mu.Lock()
	defer s.policy.mu.Unlock()
	return append([]float64(nil), s.policy.callsMS...)
}

func (s *simSample) totals() (rounds int, wall time.Duration) {
	for _, r := range s.reps {
		rounds += r.res.Rounds
		wall += r.wall
	}
	return rounds, wall
}

// fingerprintMean averages a deterministic output over the sub-traces.
func (s *simSample) fingerprintMean(key string) float64 {
	t := 0.0
	for _, fp := range s.fingerprints {
		t += fp[key]
	}
	return t / float64(len(s.fingerprints))
}

// endToEnd pools every cycle of the run: rounds per second is all rounds
// over all run time, the medians are over every sample, and the tails are
// read in groups across all cycles. The host's speed drifts over tens of
// seconds, so a figure read over the whole run repeats better than one read
// from a single cycle, which is what a median over two or three cycles is.
func (w *simWorkload) endToEnd(s *simSample) *report {
	rep := &report{}
	cycles := s.reps[len(s.reps)-1].cycle + 1
	var rounds int
	var wall time.Duration
	var roundsMS, allocMS, replays []float64
	var roundBatches, allocBatches [][]float64
	for _, r := range s.reps {
		rounds += r.res.Rounds
		wall += r.wall
		roundsMS = append(roundsMS, r.roundsMS...)
		allocMS = append(allocMS, r.allocMS...)
		roundBatches = append(roundBatches, r.roundsMS)
		allocBatches = append(allocBatches, r.allocMS)
		if r.cycle == 0 && w.service {
			replays = append(replays, r.replay.Seconds())
		}
	}
	rt, at := groupTail(roundBatches), groupTail(allocBatches)
	per := fmt.Sprintf("%d cycles of %d sub-traces, %.1f s of runs", cycles, w.traces, wall.Seconds())
	rep.add("rounds_per_s", float64(rounds)/wall.Seconds(), "1/s", per)
	rep.add("round_p50_ms", median(roundsMS), "ms", fmt.Sprintf("%s; %d rounds", per, len(roundsMS)))
	rep.add("round_tail_ms", rt.Value, "ms", fmt.Sprintf("%s; %s", per, rt))
	rep.add("alloc_p50_ms", median(allocMS), "ms", fmt.Sprintf("%s; %d allocations", per, len(allocMS)))
	rep.add("alloc_tail_ms", at.Value, "ms", fmt.Sprintf("%s; %s", per, at))
	rep.add("avg_jct_h", s.fingerprintMean("avg_jct_h"), "h", "Result.AvgJCT(0), mean over sub-traces; deterministic per seed")
	if w.service {
		rep.add("replay_s", median(replays), "s", fmt.Sprintf("median of %d journal replays", len(replays)))
	}
	return rep
}

// layers computes the per-layer table from a traced cycle; base is the same
// cycle untraced.
func (w *simWorkload) layers(s, base *simSample) (*report, error) {
	rep := &report{}
	ix := indexSpans(s.rec.snapshot())
	ser, err := scrape(s.plane)
	if err != nil {
		return nil, err
	}
	rounds, wall := s.totals()
	_, baseWall := base.totals()
	resets, migrations := 0, 0
	for _, r := range s.reps {
		resets += r.res.PolicyCalls
		migrations += r.res.Migrations
	}
	rep.set("simulator.self_ms", ix.selfTotalMS("sim.round"), "round time outside Allocate and shard calls")
	rep.set("simulator.rounds", float64(rounds), "")
	rep.set("simulator.resets", float64(resets), "allocation recomputes")
	rep.set("simulator.makespan_h", s.fingerprintMean("simulator.makespan_h"), "mean over sub-traces")
	lpLayers(rep, ser)
	if !w.service {
		solves, _ := rep.get("lp.solves")
		iters, _ := rep.get("lp.iterations")
		s.check.check(int(solves.Value) == s.policy.lpSolves && int(iters.Value) == s.policy.lpIterations,
			"gavel_lp_* series read %g solves, %g iterations; SolveContext.Stats deltas %d, %d",
			solves.Value, iters.Value, s.policy.lpSolves, s.policy.lpIterations)
	}

	var allocMS float64
	var calls, jobs, units, pairs int
	if w.service {
		allocMS, calls = ix.totalMS("shard.allocate"), ix.count("shard.allocate")
		jobs, units, pairs = s.calls.jobs, s.calls.units, s.calls.pairs
	} else {
		allocMS, calls = sum(s.policy.callsMS), len(s.policy.callsMS)
		jobs, units, pairs = s.policy.jobs, s.policy.units, s.policy.pairs
	}
	policyLayers(rep, allocMS, calls, jobs, units, pairs)

	if w.shards > 1 {
		call := "policy.allocate"
		if w.service {
			call = "rpc.allocate"
		}
		clusterLayers(rep, ix, call)
		rep.set("cluster.migrations", float64(migrations), "")
	} else {
		rep.set("cluster.remapped_solves", 0, "layer not exercised")
	}

	if w.service {
		rpcLayers(rep, ix, s.calls, ser, rounds)
		var files []journalStats
		var replays []float64
		refused, shed, quarantined, admitted := 0, 0, 0, 0
		for _, r := range s.reps {
			files = append(files, r.journal)
			replays = append(replays, r.replay.Seconds())
			for _, t := range r.res.Tenants {
				refused += t.Refused
				shed += t.Shed
				admitted += t.Admitted
				if t.Quarantined {
					quarantined++
				}
			}
		}
		journalLayers(rep, ix, ser, rounds, files, replays)
		rep.set("ingress.refused", float64(refused), "")
		rep.set("ingress.shed", float64(shed), "")
		rep.set("ingress.quarantined_tenants", ratio(float64(quarantined), float64(len(s.reps))), "per run")
		rep.set("ingress.admitted_per_round", ratio(float64(admitted), float64(rounds)), "")
	}
	rep.set("bench.trace_overhead", ratio(wall.Seconds(), baseWall.Seconds()), "traced / untraced wall time, same cycle")
	fillLayers(rep)
	return rep, nil
}
