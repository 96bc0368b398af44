package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"gavel/internal/obs/stats"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail is a fixed tail percentile with the number of samples beyond it.
type tail struct {
	P      float64
	Value  float64
	Beyond int
	Groups int // > 0: Value is the median of this many group tails
}

// tailOf reads the p-th percentile of v and counts the samples above its rank.
// The percentile is fixed per workload so runs compare like with like; a run
// with fewer than ten samples beyond it says so instead of silently reading a
// maximum.
func tailOf(v []float64, p float64) tail {
	t := tail{P: p, Value: stats.Percentile(v, p)}
	t.Beyond = len(v) - int(math.Ceil(p*float64(len(v))/100))
	if t.Beyond < 0 {
		t.Beyond = 0
	}
	return t
}

// Round and allocation tails are read in groups: tailP is their percentile
// and minGroup the fewest samples a group holds, so every group has at least
// 15 samples beyond its tail.
const (
	tailP    = 90
	minGroup = 150
)

// groupTail reads the tail of samples that arrive in batches (one per
// sub-trace or time window). Consecutive batches merge into groups of at
// least minGroup samples, the last group taking any remainder; the result is
// the median of the groups' p90s, and Beyond is the fewest samples any group
// has beyond its own. A pooled tail of a few thousand samples would sit on
// the rarest events of the run (the cold solve that opens each sub-trace, a
// slow fsync), which move from run to run far more than the body of the
// distribution; a median over groups is not moved by one bad group.
func groupTail(batches [][]float64) tail {
	var groups [][]float64
	var cur []float64
	for _, b := range batches {
		cur = append(cur, b...)
		if len(cur) >= minGroup {
			groups = append(groups, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(groups) == 0 {
			groups = append(groups, cur)
		} else {
			groups[len(groups)-1] = append(groups[len(groups)-1], cur...)
		}
	}
	t := tail{P: tailP, Groups: len(groups), Beyond: -1}
	var vals []float64
	for _, g := range groups {
		gt := tailOf(g, tailP)
		vals = append(vals, gt.Value)
		if t.Beyond < 0 || gt.Beyond < t.Beyond {
			t.Beyond = gt.Beyond
		}
	}
	t.Value = median(vals)
	t.Beyond = max(t.Beyond, 0)
	return t
}

func (t tail) String() string {
	s := fmt.Sprintf("p%g, %d samples beyond", t.P, t.Beyond)
	if t.Groups > 0 {
		s = fmt.Sprintf("median of %d group p%gs, each with >= %d samples beyond", t.Groups, t.P, t.Beyond)
	}
	if t.Beyond < 10 {
		s += " (fewer than 10: read as a near-maximum)"
	}
	return s
}

func median(v []float64) float64 { return stats.Median(v) }

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// metric is one reported value with its unit and, for timings, how it was
// derived (percentile, sample count).
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// report collects a run's metrics in the order they are added.
type report struct {
	metrics []metric
	index   map[string]int
}

func (r *report) add(name string, value float64, unit, note string) {
	if r.index == nil {
		r.index = map[string]int{}
	}
	if i, ok := r.index[name]; ok {
		r.metrics[i] = metric{name, value, unit, note}
		return
	}
	r.index[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *report) get(name string) (metric, bool) {
	i, ok := r.index[name]
	if !ok {
		return metric{}, false
	}
	return r.metrics[i], true
}

// ordered returns the metrics listed in defs, in that order, followed by
// any others.
func (r *report) ordered(defs []metricDef) *report {
	out := &report{}
	for _, d := range defs {
		if m, ok := r.get(d.Name); ok {
			out.add(m.Name, m.Value, m.Unit, m.Note)
		}
	}
	for _, m := range r.metrics {
		if _, ok := out.get(m.Name); !ok {
			out.add(m.Name, m.Value, m.Unit, m.Note)
		}
	}
	return out
}

// table renders the metrics as aligned "name value unit  note" rows.
func (r *report) table() string {
	var b strings.Builder
	for _, m := range r.metrics {
		fmt.Fprintf(&b, "  %-34s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	return b.String()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
