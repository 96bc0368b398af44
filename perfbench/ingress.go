package main

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"time"

	"gavel/internal/cluster"
	"gavel/internal/obs"
	"gavel/internal/policy"
	"gavel/internal/rpc"
	"gavel/internal/scheduler"
	"gavel/internal/simulator"
	"gavel/internal/workload"
)

// ingressWorkload drives rpc.Service's round loop on a fixed wall-clock tick
// while one open-loop generator streams Submits over a single submission
// connection, stepping through a ladder of rates.
type ingressWorkload struct {
	cluster  cluster.Spec
	shards   int
	tenants  int
	resident int // MaxResidentPerTenant: bounds each shard's LP
	life     int // rounds a job stays resident after admission
	tick     time.Duration
	rates    []float64 // submits per second, one ladder step each
	shares   []float64 // each step's share of the measuring time
	refRate  float64   // the step the submit and poll latencies are read at
	limitMS  float64   // submit tail limit for max_submit_rate
	inflight int       // requests the generator may have outstanding
}

// clientTail is the percentile submit and poll latencies are read at; the
// shortest ladder step still sends over a thousand requests.
const clientTail = 99.0

// request is one scheduled submission.
type request struct {
	due    time.Duration // offset from the start of the ladder
	step   int
	tenant string
	key    string
	args   rpc.SubmitArgs
}

// ingressEnv is one set-up: shard servers, the journaled coordinator, its
// submission endpoint and the client connection.
type ingressEnv struct {
	srvs    []*rpc.ShardServer
	svc     *rpc.Service
	sub     *rpc.SubmitServer
	client  *rpc.SubmitClient
	journal string
}

func (e *ingressEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.sub != nil {
		e.sub.Close()
	}
	if e.svc != nil {
		e.svc.Close()
	}
	closeServers(e.srvs)
}

func (w *ingressWorkload) admission() rpc.AdmissionConfig {
	// Queues are deep enough that the ladder's top step backs up without
	// refusing or shedding anything: overload shows as queueing delay.
	return rpc.AdmissionConfig{
		MaxQueuePerTenant:    1 << 20,
		MaxResidentPerTenant: w.resident,
		ShedQueueDepth:       1 << 30,
	}
}

func (w *ingressWorkload) serviceConfig(journal string, plane *obs.Plane) rpc.ServiceConfig {
	adm := w.admission()
	return rpc.ServiceConfig{
		Cluster:   w.cluster,
		Policy:    rpc.PolicySpec{Name: "max_min_fairness"},
		Route:     cluster.RouteLeastLoaded,
		Journal:   journal,
		Admission: &adm,
		Obs:       plane,
	}
}

// setup1 brings up the shard servers, the coordinator over its journal, the
// submission endpoint, and the client connection.
func (w *ingressWorkload) setup1(journal string, rec *recorder, calls *shardCallStats, plane *obs.Plane) (*ingressEnv, error) {
	e := &ingressEnv{journal: journal}
	os.Remove(journal)
	srvs, clients, err := loopbackShards(w.shards, plane)
	if err != nil {
		return nil, err
	}
	e.srvs = srvs
	e.svc, err = rpc.NewService(w.serviceConfig(journal, plane), wrapShards(clients, rec, calls))
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		e.close()
		return nil, fmt.Errorf("new service: %w", err)
	}
	e.sub = rpc.NewSubmitServer(e.svc)
	addr, err := e.sub.Serve("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("serve submissions: %w", err)
	}
	if e.client, err = rpc.DialSubmit(addr); err != nil {
		e.close()
		return nil, fmt.Errorf("dial submissions: %w", err)
	}
	return e, nil
}

// bounds splits budget into the ladder's steps: step i runs from bounds[i]
// to bounds[i+1].
func (w *ingressWorkload) bounds(budget time.Duration) []time.Duration {
	out := []time.Duration{0}
	at := 0.0
	for _, sh := range w.shares {
		at += sh / sum(w.shares)
		out = append(out, time.Duration(at*float64(budget)))
	}
	return out
}

// schedule draws the whole send schedule from the seed before the run: a
// Poisson process per ladder step, tenants drawn uniformly, and job shapes
// from a tenant trace with honest declarations.
func (w *ingressWorkload) schedule(seed int64, bounds []time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []request
	for s, rate := range w.rates {
		t := 0.0
		for {
			t += rng.ExpFloat64() / rate
			if t >= (bounds[s+1] - bounds[s]).Seconds() {
				break
			}
			reqs = append(reqs, request{
				due:    bounds[s] + time.Duration(t*float64(time.Second)),
				step:   s,
				tenant: fmt.Sprintf("tenant-%d", rng.Intn(w.tenants)),
			})
		}
	}
	specs := make([]workload.TenantSpec, w.tenants)
	for i := range specs {
		specs[i] = workload.TenantSpec{Name: fmt.Sprintf("tenant-%d", i), NumJobs: len(reqs)/w.tenants + 1, SLOClass: i}
	}
	jobs := workload.GenerateTenantTrace(seed, specs)
	byTenant := map[string][]workload.Job{}
	for _, j := range jobs {
		byTenant[j.Tenant] = append(byTenant[j.Tenant], j)
	}
	used := map[string]int{}
	for i := range reqs {
		r := &reqs[i]
		pool := byTenant[r.tenant]
		j := pool[used[r.tenant]%len(pool)]
		used[r.tenant]++
		tput := make([]float64, workload.NumTypes)
		for t := range tput {
			tput[t] = simulator.Oracle{}.Isolated(&j, t)
		}
		r.key = fmt.Sprintf("req-%d", i)
		r.args = rpc.SubmitArgs{
			Tenant: r.tenant, Key: r.key, Name: j.Config.Name(),
			TotalSteps: j.TotalSteps, ScaleFactor: 1, Tput: tput, SLOClass: j.SLOClass,
		}
	}
	return reqs
}

// ack is what the generator observed for one request.
type ack struct {
	jobID    int
	ok       bool
	submitMS float64 // from the due time to the reply
	lagMS    float64 // how late the generator sent
	polled   bool    // a Poll of an earlier key followed
	pollOK   bool    // it succeeded and returned that key's acknowledged job ID
	pollMS   float64
}

// roundObs is what the round loop observed for one round.
type roundObs struct {
	at       time.Duration // offset of the round's start from the ladder start
	busyMS   float64
	allocMS  float64 // -1 when no shard was stale
	admitted []int
	queue    int
}

// ingressSample is one measured ladder.
type ingressSample struct {
	reqs    []request
	acks    []ack
	rounds  []roundObs
	admitAt map[int]time.Duration // job ID -> offset of the AdmitPending that admitted it
	doneAt  map[int]time.Duration // job ID -> offset of the Remove that retired it
	bounds  []time.Duration       // ladder step boundaries
	replay  time.Duration
	journal journalStats
	live    []rpc.SubmissionInfo
	tenants []rpc.TenantStatus
	rec     *recorder
	plane   *obs.Plane
	calls   *shardCallStats
	check   tally
}

// measure runs the ladder once over budget, then drains the queue, retires
// every job, and replays the journal.
func (w *ingressWorkload) measure(seed int64, budget time.Duration, dir string, traced bool) (*ingressSample, error) {
	s := &ingressSample{calls: newShardCallStats(), admitAt: map[int]time.Duration{}, doneAt: map[int]time.Duration{}}
	if traced {
		s.rec = newRecorder()
		s.plane = newPlane(s.rec)
	}
	s.bounds = w.bounds(budget)
	s.reqs = w.schedule(seed, s.bounds)
	journal := dir + "/journal-ingress"
	env, err := w.setup1(journal, s.rec, s.calls, s.plane)
	if err != nil {
		return nil, err
	}
	defer env.close()

	s.acks = make([]ack, len(s.reqs))
	start := time.Now()
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		w.generate(env.client, s, start)
	}()
	loopErr := w.roundLoop(env.svc, s, start, genDone)
	<-genDone
	if loopErr != nil {
		return nil, loopErr
	}
	w.checkAcks(s)

	// Replay the closed journal into a fresh coordinator over fresh shard
	// servers; it must reconstruct the live coordinator's end state.
	liveShards := env.svc.JobShards()
	s.live = env.svc.Submissions()
	s.tenants = env.svc.TenantStats()
	env.client.Close()
	env.client = nil
	env.sub.Close()
	env.sub = nil
	if err := env.svc.Close(); err != nil {
		return nil, fmt.Errorf("close service: %w", err)
	}
	env.svc = nil
	if s.journal, err = readJournalStats(journal); err != nil {
		return nil, err
	}
	replayStart := time.Now()
	srvs, clients, err := loopbackShards(w.shards, nil)
	if err != nil {
		return nil, err
	}
	defer closeServers(srvs)
	svc, err := rpc.NewService(w.serviceConfig(journal, nil), clients)
	s.replay = time.Since(replayStart)
	if err != nil {
		for _, c := range clients {
			c.Close()
		}
		s.check.fail(1, "replay: %v", err)
		return s, nil
	}
	defer svc.Close()
	s.check.check(reflect.DeepEqual(svc.JobShards(), liveShards), "replayed job placement differs from the live coordinator's")
	s.check.check(reflect.DeepEqual(svc.Submissions(), s.live), "replayed submissions differ from the live coordinator's")
	return s, nil
}

// generate sends every request at its due time, each on its own goroutine so
// a slow reply never delays the next send; only a full in-flight window
// makes the generator itself late, which lagMS records.
func (w *ingressWorkload) generate(client *rpc.SubmitClient, s *ingressSample, start time.Time) {
	sem := make(chan struct{}, w.inflight)
	var wg sync.WaitGroup
	var mu sync.Mutex
	lastAcked := -1
	for i := range s.reqs {
		r := &s.reqs[i]
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		sent := time.Since(start)
		wg.Add(1)
		go func(i int, r *request, sent time.Duration) {
			defer wg.Done()
			defer func() { <-sem }()
			a := ack{lagMS: ms(sent - r.due)}
			spStart := time.Now()
			rep, err := client.Submit(r.args)
			a.submitMS = ms(time.Since(start) - r.due)
			s.rec.add(span{Name: "client.submit", Trace: r.key}, spStart, time.Now())
			if err == nil {
				a.ok, a.jobID = true, rep.JobID
			}
			mu.Lock()
			s.acks[i] = a
			prev := lastAcked
			if a.ok && i > lastAcked {
				lastAcked = i
			}
			var want ack
			if prev >= 0 {
				want = s.acks[prev]
			}
			mu.Unlock()
			if prev < 0 {
				return
			}
			// Poll an earlier acknowledged key: reads run beside writes.
			p := &s.reqs[prev]
			pollStart := time.Now()
			prep, err := client.Poll(rpc.PollArgs{Tenant: p.tenant, Key: p.key})
			pollMS := ms(time.Since(pollStart))
			s.rec.add(span{Name: "client.poll", Trace: p.key}, pollStart, time.Now())
			ok := err == nil && prep.JobID == want.jobID && prep.State != rpc.SubmissionUnknown
			mu.Lock()
			s.acks[i].polled, s.acks[i].pollOK, s.acks[i].pollMS = true, ok, pollMS
			mu.Unlock()
		}(i, r, sent)
	}
	wg.Wait()
}

// roundLoop runs the coordinator's round loop on a fixed tick until the
// generator is done, the queue has drained, and every job has retired.
func (w *ingressWorkload) roundLoop(svc *rpc.Service, s *ingressSample, start time.Time, genDone <-chan struct{}) error {
	checker := newRoundChecker(workerInts(w.cluster))
	defer s.check.absorb(checker)
	admittedRound := map[int]int64{}
	ladderEnd := s.bounds[len(s.bounds)-1]
	drainLimit := ladderEnd + 60*time.Second
	var r int64
	info := func(id int) policy.JobInfo {
		age := float64(r - admittedRound[id])
		const steps = 1e6
		return policy.JobInfo{
			Weight: 1, Priority: 1, TotalSteps: steps, ArrivalSeq: id,
			RemainingSteps: steps * (1 - age/float64(w.life)), Elapsed: age * 360,
		}
	}
	for r = 1; ; r++ {
		if d := time.Until(start.Add(time.Duration(r-1) * w.tick)); d > 0 {
			time.Sleep(d)
		}
		ro := roundObs{at: time.Since(start), allocMS: -1}
		if ro.at > drainLimit {
			return fmt.Errorf("ingress: queue not drained %v after the ladder ended", drainLimit-ladderEnd)
		}
		roundID := s.rec.id()
		s.rec.setCurrent(roundID)
		iterStart := time.Now()
		call := func(name string, fn func() error) error {
			id := s.rec.id()
			s.rec.setCurrent(id)
			t := time.Now()
			err := fn()
			s.rec.add(span{ID: id, Parent: roundID, Name: name, Trace: obs.RoundTrace(r)}, t, time.Now())
			s.rec.setCurrent(roundID)
			return err
		}

		var retire []int
		for id, at := range admittedRound {
			if r-at >= int64(w.life) {
				retire = append(retire, id)
			}
		}
		sort.Ints(retire)
		if err := call("svc.remove", func() error {
			for _, id := range retire {
				if err := svc.Remove(id); err != nil {
					return err
				}
				delete(admittedRound, id)
				s.doneAt[id] = time.Since(start)
			}
			return nil
		}); err != nil {
			return fmt.Errorf("remove: %w", err)
		}
		if err := call("svc.admit_pending", func() error {
			var err error
			ro.admitted, err = svc.AdmitPending(r)
			return err
		}); err != nil {
			return fmt.Errorf("admit pending: %w", err)
		}
		now := time.Since(start)
		for _, id := range ro.admitted {
			admittedRound[id] = r
			s.admitAt[id] = now
		}
		stale := false
		for k := 0; k < svc.NumShards(); k++ {
			if a, _ := svc.Alloc(k); a == nil || svc.IsDirty(k) {
				stale = true
			}
		}
		allocStart := time.Now()
		if err := call("svc.allocate_all", func() error { return svc.AllocateAll(r, info, false) }); err != nil {
			return fmt.Errorf("allocate: %w", err)
		}
		if stale {
			ro.allocMS = ms(time.Since(allocStart))
		}
		var perShard [][]scheduler.Assignment
		if err := call("svc.assign_round", func() error {
			var err error
			perShard, err = svc.AssignRound(r, 360, nil)
			return err
		}); err != nil {
			return fmt.Errorf("assign round: %w", err)
		}
		for k, assigns := range perShard {
			alloc, ids := svc.Alloc(k)
			checker.observe(float64(r), alloc, func(local int) int { return ids[local] }, func(int) int { return 1 }, assigns)
		}
		if err := call("svc.end_round", func() error { return svc.EndRound(r) }); err != nil {
			return fmt.Errorf("end round: %w", err)
		}
		ro.busyMS = ms(time.Since(iterStart))
		ro.queue = svc.QueueDepth()
		s.rec.add(span{ID: roundID, Name: "ingress.round", Trace: obs.RoundTrace(r)}, iterStart, time.Now())
		s.rec.setCurrent(0)
		s.rounds = append(s.rounds, ro)
		select {
		case <-genDone:
			if ro.queue == 0 && len(admittedRound) == 0 {
				return nil
			}
		default:
		}
	}
}

// checkAcks verifies the client-visible outcome: every submission was
// acknowledged, no job ID was issued twice, every poll returned the
// acknowledged ID, and every acknowledged submission ended Done.
func (w *ingressWorkload) checkAcks(s *ingressSample) {
	seen := map[int]bool{}
	for i, a := range s.acks {
		if !a.ok {
			s.check.fail(1, "submit %s was not acknowledged", s.reqs[i].key)
			continue
		}
		s.check.check(!seen[a.jobID], "job ID %d issued twice", a.jobID)
		seen[a.jobID] = true
		_, done := s.doneAt[a.jobID]
		s.check.check(done, "submission %s (job %d) never finished", s.reqs[i].key, a.jobID)
		if a.polled {
			s.check.check(a.pollOK, "poll after %s failed or returned the wrong job", s.reqs[i].key)
		}
	}
}

func (w *ingressWorkload) setup(seed int64, budget time.Duration, dir string) error {
	w.schedule(seed, w.bounds(budget))
	env, err := w.setup1(dir+"/journal-setup", nil, newShardCallStats(), nil)
	if err != nil {
		return err
	}
	env.close()
	return nil
}

func (w *ingressWorkload) run(seed int64, budget time.Duration, dir string, traced bool) (*report, *tally, []span, error) {
	if !traced {
		s, err := w.measure(seed, budget, dir, false)
		if err != nil {
			return nil, nil, nil, err
		}
		return w.endToEnd(s), &s.check, nil, nil
	}
	// Half the time untraced, half traced, on the same schedule shape: the
	// round-loop busy time of the two gives the tracing overhead.
	base, err := w.measure(seed, budget/2, dir, false)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := w.measure(seed, budget/2, dir, true)
	if err != nil {
		return nil, nil, nil, err
	}
	rep, err := w.layers(s, base)
	if err != nil {
		return nil, nil, nil, err
	}
	checks := base.check
	checks.attempted += s.check.attempted
	checks.failed += s.check.failed
	checks.problems = append(checks.problems, s.check.problems...)
	return rep, &checks, s.rec.snapshot(), nil
}

// stepRounds are the rounds that started during ladder step i.
func (s *ingressSample) stepRounds(i int) []roundObs {
	lo, hi := s.bounds[i], s.bounds[i+1]
	var out []roundObs
	for _, r := range s.rounds {
		if r.at >= lo && r.at < hi {
			out = append(out, r)
		}
	}
	return out
}

func (w *ingressWorkload) refIndex() int {
	for i, r := range w.rates {
		if r == w.refRate {
			return i
		}
	}
	return 0
}

// stepStats summarizes one ladder step.
type stepStats struct {
	rate             float64
	submitMS, pollMS []float64
	lagMS            []float64
	admitDelayMS     []float64
	failed           int
	queueStart       int
	queueEnd         int
}

func (w *ingressWorkload) steps(s *ingressSample) []stepStats {
	out := make([]stepStats, len(w.rates))
	for i := range out {
		out[i].rate = w.rates[i]
	}
	for i, r := range s.reqs {
		st, a := &out[r.step], s.acks[i]
		st.lagMS = append(st.lagMS, a.lagMS)
		if !a.ok || (a.polled && !a.pollOK) {
			st.failed++
			continue
		}
		st.submitMS = append(st.submitMS, a.submitMS)
		if a.polled {
			st.pollMS = append(st.pollMS, a.pollMS)
		}
		if at, ok := s.admitAt[a.jobID]; ok {
			st.admitDelayMS = append(st.admitDelayMS, ms(at-r.due))
		}
	}
	for i := range out {
		if rs := s.stepRounds(i); len(rs) > 0 {
			out[i].queueStart, out[i].queueEnd = rs[0].queue, rs[len(rs)-1].queue
		}
	}
	return out
}

// maxRate is the highest ladder rate whose submit tail stays within the
// limit with nothing failed and no queue growth beyond four ticks of
// arrivals over the step.
func (w *ingressWorkload) maxRate(steps []stepStats) float64 {
	best := 0.0
	for _, st := range steps {
		// A queue that keeps up holds about one tick of arrivals when it is
		// read; four ticks leaves room for a Poisson burst.
		slack := int(4 * st.rate * w.tick.Seconds())
		if st.failed == 0 && len(st.submitMS) > 0 &&
			tailOf(st.submitMS, clientTail).Value <= w.limitMS &&
			st.queueEnd <= st.queueStart+slack {
			best = max(best, st.rate)
		}
	}
	return best
}

// endToEnd reads the round loop and job completion at the reference rate,
// the load the ladder is built around; the other steps feed
// max_submit_rate.
func (w *ingressWorkload) endToEnd(s *ingressSample) *report {
	rep := &report{}
	ref := w.refIndex()
	lo, hi := s.bounds[ref], s.bounds[ref+1]
	var rps, rp50, ap50 []float64
	var busyWin, allocWin [][]float64
	for k := time.Duration(0); k < windows; k++ {
		wlo, whi := lo+(hi-lo)*k/windows, lo+(hi-lo)*(k+1)/windows
		var busy, alloc []float64
		for _, r := range s.rounds {
			if r.at < wlo || r.at >= whi {
				continue
			}
			busy = append(busy, r.busyMS)
			if r.allocMS >= 0 {
				alloc = append(alloc, r.allocMS)
			}
		}
		busyWin, allocWin = append(busyWin, busy), append(allocWin, alloc)
		rps = append(rps, float64(len(busy))/(sum(busy)/1000))
		rp50 = append(rp50, median(busy))
		ap50 = append(ap50, median(alloc))
	}
	rt, at := groupTail(busyWin), groupTail(allocWin)
	per := fmt.Sprintf("median over %d windows at %g/s", windows, w.refRate)
	rep.add("rounds_per_s", median(rps), "1/s", "rounds per second of round-loop busy time; "+per)
	rep.add("round_p50_ms", median(rp50), "ms", per)
	rep.add("round_tail_ms", rt.Value, "ms", fmt.Sprintf("%s at %g/s", rt, w.refRate))
	rep.add("alloc_p50_ms", median(ap50), "ms", "AllocateAll on rounds with a stale shard; "+per)
	rep.add("alloc_tail_ms", at.Value, "ms", fmt.Sprintf("%s at %g/s", at, w.refRate))
	var jct []float64
	for i, a := range s.acks {
		if done, ok := s.doneAt[a.jobID]; a.ok && ok && s.reqs[i].step == ref {
			jct = append(jct, (done - s.reqs[i].due).Hours())
		}
	}
	rep.add("avg_jct_h", sum(jct)/float64(max(len(jct), 1)), "h", fmt.Sprintf("due time to retirement, wall clock, at %g/s", w.refRate))
	w.ingressMetrics(rep, s, false)
	rep.add("replay_s", s.replay.Seconds(), "s", "rpc.NewService over the closed journal")
	return rep
}

// windows is how many equal slices of the reference step the round-loop
// timings are read in. Each is reported as the median over the slices, so a
// burst of interference on the host that slows one slice does not move it.
const windows = 10

// ingressMetrics adds the client-facing ingress figures; layered names
// them as the per-layer table does, otherwise the end-to-end names are used.
func (w *ingressWorkload) ingressMetrics(rep *report, s *ingressSample, layered bool) {
	steps := w.steps(s)
	ref := steps[w.refIndex()]
	st, pt := tailOf(ref.submitMS, clientTail), tailOf(ref.pollMS, clientTail)
	name := func(n string) string {
		if layered {
			return "ingress." + n
		}
		return n
	}
	at := fmt.Sprintf(" at %g/s", ref.rate)
	rep.add(name("submit_p50_ms"), median(ref.submitMS), "ms", fmt.Sprintf("%d submits%s, from the due time", len(ref.submitMS), at))
	rep.add(name("submit_tail_ms"), st.Value, "ms", st.String()+at)
	rep.add(name("poll_tail_ms"), pt.Value, "ms", pt.String()+at)
	rep.add(name("admit_delay_p50_ms"), median(ref.admitDelayMS), "ms", "due time to the admitting AdmitPending"+at)
	rep.add(name("max_submit_rate"), w.maxRate(steps), "1/s",
		fmt.Sprintf("highest of %v/s with submit p%g <= %g ms, no failure, no queue growth", w.rates, clientTail, w.limitMS))
	var lag []float64
	lagged := 0
	for _, st := range steps {
		lag = append(lag, st.lagMS...)
		if tailOf(st.lagMS, 99).Value > ms(w.tick) {
			lagged++
			fmt.Printf("  WARN step %g/s: generator lag p99 %.3g ms exceeds one tick\n", st.rate, tailOf(st.lagMS, 99).Value)
		}
		fmt.Printf("  step %6g/s: %5d submits, p50 %.3g ms, p%g %.3g ms, queue %d -> %d, %d failed\n",
			st.rate, len(st.submitMS), median(st.submitMS), clientTail, tailOf(st.submitMS, clientTail).Value,
			st.queueStart, st.queueEnd, st.failed)
	}
	lt := tailOf(lag, 99)
	if layered {
		rep.set("ingress.generator_lag_ms", lt.Value, lt.String())
		rep.set("ingress.lagged_steps", float64(lagged), "steps whose lag p99 exceeds one tick")
	}
}

func (w *ingressWorkload) layers(s, base *ingressSample) (*report, error) {
	rep := &report{}
	ix := indexSpans(s.rec.snapshot())
	ser, err := scrape(s.plane)
	if err != nil {
		return nil, err
	}
	rounds := len(s.rounds)
	lpLayers(rep, ser)
	policyLayers(rep, ix.totalMS("shard.allocate"), ix.count("shard.allocate"), s.calls.jobs, s.calls.units, s.calls.pairs)
	clusterLayers(rep, ix, "rpc.allocate")
	rpcLayers(rep, ix, s.calls, ser, rounds)
	journalLayers(rep, ix, ser, rounds, []journalStats{s.journal}, []float64{s.replay.Seconds()})
	w.ingressMetrics(rep, s, true)
	rep.set("ingress.end_round_ms", ix.totalMS("svc.end_round"), "")
	rep.set("ingress.admit_pending_ms", ix.totalMS("svc.admit_pending"), "")
	depth, admitted := 0, 0
	for _, r := range s.rounds {
		depth = max(depth, r.queue)
		admitted += len(r.admitted)
	}
	rep.set("ingress.queue_depth_max", float64(depth), "")
	rep.set("ingress.admitted_per_round", ratio(float64(admitted), float64(rounds)), "")
	refused, shed, quarantined := 0, 0, 0
	for _, t := range s.tenants {
		refused += t.Refused
		shed += t.Shed
		if t.Quarantined {
			quarantined++
		}
	}
	rep.set("ingress.refused", float64(refused), "")
	rep.set("ingress.shed", float64(shed), "")
	rep.set("ingress.quarantined_tenants", float64(quarantined), "")
	mean := func(rs []roundObs) float64 {
		t := 0.0
		for _, r := range rs {
			t += r.busyMS
		}
		return t / float64(max(len(rs), 1))
	}
	ref := w.refIndex()
	rep.set("bench.trace_overhead", ratio(mean(s.stepRounds(ref)), mean(base.stepRounds(ref))),
		fmt.Sprintf("traced / untraced mean round-loop busy time at %g/s", w.refRate))
	fillLayers(rep)
	return rep, nil
}
