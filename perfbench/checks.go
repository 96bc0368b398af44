package main

import (
	"fmt"

	"gavel/internal/core"
	"gavel/internal/scheduler"
)

// roundChecker validates every executed round against the scheduling
// invariants: each job's allocation row sums to at most 1, the round's
// assignments across all shards fit the cluster's per-type worker budget, and
// no job is placed twice in one round. Shards report a round separately, so
// observations sharing a round key are merged before the budget check.
type roundChecker struct {
	budget []int

	open   bool
	key    float64
	used   []int
	placed map[int]bool
	broken bool

	// checked remembers the last allocations whose rows were verified: an
	// allocation stays in force for many rounds, and its rows only need
	// checking once.
	checked [8]*core.Allocation
	next    int

	rounds int
	bad    int
	first  string // first violation, for the report
}

func newRoundChecker(budget []int) *roundChecker {
	return &roundChecker{budget: append([]int(nil), budget...)}
}

// observe folds one shard's round into the round identified by key. jobOf
// maps a unit-local member position to a stable job identity; sfOf gives a
// job's worker count.
func (c *roundChecker) observe(key float64, alloc *core.Allocation, jobOf func(local int) int, sfOf func(job int) int, assigns []scheduler.Assignment) {
	if !c.open || key != c.key {
		c.flush()
		c.open, c.key = true, key
		c.used = make([]int, len(c.budget))
		c.placed = map[int]bool{}
		c.broken = false
	}
	if alloc == nil {
		return
	}
	c.checkRows(alloc, jobOf)
	unitSF := func(u int) int {
		sf := 1
		for _, local := range alloc.Units[u].Jobs {
			sf = max(sf, sfOf(jobOf(local)))
		}
		return sf
	}
	for j, n := range scheduler.UsedWorkers(assigns, unitSF, len(c.budget)) {
		c.used[j] += n
	}
	for _, a := range assigns {
		if a.UnitIdx < 0 || a.UnitIdx >= len(alloc.Units) {
			c.fail("assignment names unit %d of %d", a.UnitIdx, len(alloc.Units))
			continue
		}
		for _, local := range alloc.Units[a.UnitIdx].Jobs {
			id := jobOf(local)
			if c.placed[id] {
				c.fail("job %d assigned twice in one round", id)
			}
			c.placed[id] = true
		}
	}
}

// checkRows verifies that no job's allocation row sums above 1 and no share
// is negative, once per allocation.
func (c *roundChecker) checkRows(alloc *core.Allocation, jobOf func(local int) int) {
	for _, a := range c.checked {
		if a == alloc {
			return
		}
	}
	c.checked[c.next] = alloc
	c.next = (c.next + 1) % len(c.checked)
	rowSum := map[int]float64{}
	for u, unit := range alloc.Units {
		for _, x := range alloc.X[u] {
			if x < -1e-9 {
				c.fail("negative allocation %g on unit %d", x, u)
			}
			for _, local := range unit.Jobs {
				rowSum[local] += x
			}
		}
	}
	for local, s := range rowSum {
		if s > 1+1e-9 {
			c.fail("job %d allocation row sums to %.12g > 1", jobOf(local), s)
		}
	}
}

func (c *roundChecker) fail(format string, args ...any) {
	if c.first == "" {
		c.first = fmt.Sprintf("round at %g: ", c.key) + fmt.Sprintf(format, args...)
	}
	c.broken = true
}

// flush closes the open round: the merged budget check runs here.
func (c *roundChecker) flush() {
	if !c.open {
		return
	}
	if err := scheduler.WithinBudget(c.used, c.budget); err != nil {
		c.fail("%v", err)
	}
	c.rounds++
	if c.broken {
		c.bad++
	}
	c.open = false
}

// tally accumulates attempted and failed operations with the first few
// reasons for failure.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

func (t *tally) ok(n int) { t.attempted += n }

func (t *tally) fail(n int, format string, args ...any) {
	t.attempted += n
	t.failed += n
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// check records one boolean outcome.
func (t *tally) check(cond bool, format string, args ...any) {
	if cond {
		t.ok(1)
		return
	}
	t.fail(1, format, args...)
}

// absorb adds a round checker's results.
func (t *tally) absorb(c *roundChecker) {
	c.flush()
	t.ok(c.rounds - c.bad)
	if c.bad > 0 {
		t.fail(c.bad, "%d rounds broke an invariant; first: %s", c.bad, c.first)
	}
	*c = roundChecker{budget: c.budget}
}
