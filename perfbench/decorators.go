package main

import (
	"sync"
	"sync/atomic"
	"time"

	"gavel/internal/core"
	"gavel/internal/policy"
	"gavel/internal/rpc"
)

// timedPolicy wraps a policy.Policy and times every Allocate, reading the
// solve context's statistics before and after so each call's LP work is
// attributed to it. Shards call Allocate concurrently, each with its own
// solve context; the context identifies the shard.
type timedPolicy struct {
	inner policy.Policy
	rec   *recorder
	round func() string // trace ID of the round being built

	mu      sync.Mutex
	callsMS []float64
	jobs    int
	units   int
	pairs   int
	// lpSolves and lpIterations sum each call's SolveContext.Stats deltas,
	// to check the telemetry plane's gavel_lp_* series against.
	lpSolves, lpIterations int
	// shardOf numbers the solve contexts of the current simulator.Run; it
	// is cleared between runs so it keeps no context (and its cached bases)
	// alive.
	shardOf map[*policy.SolveContext]int
}

func newTimedPolicy(inner policy.Policy, rec *recorder, round func() string) *timedPolicy {
	return &timedPolicy{inner: inner, rec: rec, round: round, shardOf: map[*policy.SolveContext]int{}}
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Allocate(in *policy.Input, ctx *policy.SolveContext) (*core.Allocation, error) {
	var before policy.SolveStats
	if ctx != nil {
		before = ctx.Stats
	}
	parent := p.rec.current()
	start := time.Now()
	alloc, err := p.inner.Allocate(in, ctx)
	end := time.Now()

	p.mu.Lock()
	defer p.mu.Unlock()
	shard, ok := p.shardOf[ctx]
	if !ok {
		shard = len(p.shardOf)
		p.shardOf[ctx] = shard
	}
	p.callsMS = append(p.callsMS, ms(end.Sub(start)))
	p.jobs += len(in.Jobs)
	p.units += len(in.Units)
	for _, u := range in.Units {
		if len(u.Jobs) > 1 {
			p.pairs++
		}
	}
	if ctx != nil {
		p.lpSolves += ctx.Stats.Solves - before.Solves
		p.lpIterations += ctx.Stats.Iterations - before.Iterations
	}
	trace := ""
	if p.rec != nil {
		trace = p.round()
	}
	p.rec.add(span{Name: "policy.allocate", Parent: parent, Trace: trace, Shard: shard, N: len(in.Jobs)}, start, end)
	return alloc, err
}

// endRun forgets the finished run's solve contexts.
func (p *timedPolicy) endRun() {
	p.mu.Lock()
	p.shardOf = map[*policy.SolveContext]int{}
	p.mu.Unlock()
}

// rpcMethods are the ShardClient calls the per-layer table breaks out.
var rpcMethods = []string{"allocate", "assign_round", "install", "remove", "observe", "observe_job", "snapshot"}

// timedShard wraps an rpc.ShardClient and times every call from the
// coordinator's side of the wire. The Trace field every control-plane
// argument carries joins the call to the round that caused it and to the
// shard server's own span for the same call.
type timedShard struct {
	inner rpc.ShardClient
	shard int
	rec   *recorder
	st    *shardCallStats
}

// shardCallStats aggregates timedShard calls across all shards of a run.
type shardCallStats struct {
	mu    sync.Mutex
	calls map[string][]float64 // method -> call durations (ms)
	jobs  int                  // resident jobs summed over Allocate replies
	units int
	pairs int
	// last is the trace ID of the latest traced call: the round the
	// coordinator is building.
	last atomic.Pointer[string]
}

func (s *shardCallStats) lastTraceOf() string {
	if p := s.last.Load(); p != nil {
		return *p
	}
	return ""
}

func newShardCallStats() *shardCallStats {
	return &shardCallStats{calls: map[string][]float64{}}
}

func (s *shardCallStats) durations(method string) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.calls[method]...)
}

func (s *shardCallStats) total() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, v := range s.calls {
		n += len(v)
	}
	return n
}

// wrapShards decorates every client; the returned slice is what the
// coordinator is handed.
func wrapShards(clients []rpc.ShardClient, rec *recorder, st *shardCallStats) []rpc.ShardClient {
	out := make([]rpc.ShardClient, len(clients))
	for k, c := range clients {
		out[k] = &timedShard{inner: c, shard: k, rec: rec, st: st}
	}
	return out
}

func (c *timedShard) done(method, trace string, start time.Time, n int) {
	end := time.Now()
	c.st.mu.Lock()
	c.st.calls[method] = append(c.st.calls[method], ms(end.Sub(start)))
	c.st.mu.Unlock()
	if trace != "" {
		c.st.last.Store(&trace)
	}
	c.rec.add(span{Name: "rpc." + method, Parent: c.rec.current(), Trace: trace, Shard: c.shard, N: n}, start, end)
}

func (c *timedShard) Hello(a rpc.HelloArgs) (rpc.HelloReply, error) {
	start := time.Now()
	r, err := c.inner.Hello(a)
	c.done("hello", "", start, 0)
	return r, err
}

func (c *timedShard) Configure(cfg rpc.ShardConfig) error {
	start := time.Now()
	err := c.inner.Configure(cfg)
	c.done("configure", "", start, 0)
	return err
}

func (c *timedShard) Install(a rpc.InstallArgs) error {
	start := time.Now()
	err := c.inner.Install(a)
	c.done("install", a.Trace, start, 0)
	return err
}

func (c *timedShard) Remove(a rpc.RemoveArgs) error {
	start := time.Now()
	err := c.inner.Remove(a)
	c.done("remove", a.Trace, start, 0)
	return err
}

func (c *timedShard) Extract(a rpc.ExtractArgs) (rpc.ExtractReply, error) {
	start := time.Now()
	r, err := c.inner.Extract(a)
	c.done("extract", a.Trace, start, 0)
	return r, err
}

func (c *timedShard) Allocate(a rpc.AllocateArgs) (rpc.AllocateReply, error) {
	start := time.Now()
	r, err := c.inner.Allocate(a)
	pairs := 0
	for _, u := range r.Units {
		if len(u.Jobs) > 1 {
			pairs++
		}
	}
	c.st.mu.Lock()
	c.st.jobs += len(r.IDs)
	c.st.units += len(r.Units)
	c.st.pairs += pairs
	c.st.mu.Unlock()
	c.done("allocate", a.Trace, start, len(r.IDs))
	return r, err
}

func (c *timedShard) AssignRound(a rpc.AssignRoundArgs) (rpc.AssignRoundReply, error) {
	start := time.Now()
	r, err := c.inner.AssignRound(a)
	c.done("assign_round", a.Trace, start, 0)
	return r, err
}

func (c *timedShard) Observe(a rpc.ObserveArgs) error {
	start := time.Now()
	err := c.inner.Observe(a)
	c.done("observe", a.Trace, start, len(a.Obs))
	return err
}

func (c *timedShard) ObserveJob(a rpc.ObserveJobArgs) error {
	start := time.Now()
	err := c.inner.ObserveJob(a)
	c.done("observe_job", a.Trace, start, 0)
	return err
}

func (c *timedShard) Snapshot() (rpc.SnapshotReply, error) {
	start := time.Now()
	r, err := c.inner.Snapshot()
	c.done("snapshot", "", start, 0)
	return r, err
}

func (c *timedShard) Status() (rpc.ShardStatus, error) {
	start := time.Now()
	r, err := c.inner.Status()
	c.done("status", "", start, 0)
	return r, err
}

func (c *timedShard) Ping() error {
	start := time.Now()
	err := c.inner.Ping()
	c.done("ping", "", start, 0)
	return err
}

func (c *timedShard) Close() error { return c.inner.Close() }
