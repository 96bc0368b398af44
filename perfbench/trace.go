package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gavel/internal/obs"
)

// span is one timed call at a layer boundary. Spans the benchmark records
// around its calls into the program have Src "bench"; spans the program's own
// telemetry plane records (shard.*, journal.commit, coord.*) are copied in
// with Src "program" and join the benchmark's spans through Trace, the
// round's obs.RoundTrace ID.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Src    string `json:"src"`
	// N is a per-call size attribute (jobs per Allocate, for example).
	N int `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing, so untraced runs pay one nil check per call.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	// cur is the span new children attach to when the caller does not name
	// a parent: the open round, or the open round-loop call.
	cur atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span ID (0 on a nil recorder).
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// current is the parent for spans that belong to whatever is open now.
func (r *recorder) current() int64 {
	if r == nil {
		return 0
	}
	return r.cur.Load()
}

// setCurrent makes id the parent of later spans and returns the previous one.
func (r *recorder) setCurrent(id int64) int64 {
	if r == nil {
		return 0
	}
	return r.cur.Swap(id)
}

// add records a finished span. A zero ID is assigned here.
func (r *recorder) add(sp span, start, end time.Time) {
	if r == nil {
		return
	}
	if sp.ID == 0 {
		sp.ID = r.id()
	}
	if sp.Src == "" {
		sp.Src = "bench"
	}
	sp.Start = start.Sub(r.t0).Nanoseconds()
	sp.End = end.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// programSink is an io.Writer for obs.Tracer.SetWriter: it decodes every span
// the program records and keeps it beside the benchmark's own.
type programSink struct{ r *recorder }

func (p programSink) Write(line []byte) (int, error) {
	var sp obs.Span
	if err := json.Unmarshal(line, &sp); err != nil {
		return 0, fmt.Errorf("decode program span: %w", err)
	}
	start := time.Unix(0, sp.StartNs)
	p.r.add(span{Name: sp.Name, Trace: sp.Trace, Shard: sp.Shard, Src: "program"},
		start, start.Add(time.Duration(sp.DurNs)))
	return len(line), nil
}

// newPlane returns a telemetry plane whose spans stream into r.
func newPlane(r *recorder) *obs.Plane {
	p := obs.NewPlane()
	p.Tracer().SetWriter(programSink{r})
	return p
}

// snapshot returns the spans recorded so far, ordered by start.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// spanIndex answers the per-layer questions over a finished span set.
type spanIndex struct {
	spans    []span
	byName   map[string][]int
	children map[int64][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, byName: map[string][]int{}, children: map[int64][]int{}}
	for i, sp := range spans {
		ix.byName[sp.Name] = append(ix.byName[sp.Name], i)
		if sp.Parent != 0 {
			ix.children[sp.Parent] = append(ix.children[sp.Parent], i)
		}
	}
	return ix
}

func (ix *spanIndex) named(name string) []span {
	out := make([]span, 0, len(ix.byName[name]))
	for _, i := range ix.byName[name] {
		out = append(out, ix.spans[i])
	}
	return out
}

func (ix *spanIndex) count(name string) int { return len(ix.byName[name]) }

// totalMS sums the durations of every span with the given name.
func (ix *spanIndex) totalMS(name string) float64 {
	var d time.Duration
	for _, i := range ix.byName[name] {
		d += ix.spans[i].dur()
	}
	return ms(d)
}

// durationsMS lists the durations of every span with the given name.
func (ix *spanIndex) durationsMS(name string) []float64 {
	out := make([]float64, 0, len(ix.byName[name]))
	for _, i := range ix.byName[name] {
		out = append(out, ms(ix.spans[i].dur()))
	}
	return out
}

// selfMS is a span's duration minus the part of it its children cover
// (children may overlap one another when they ran concurrently).
func (ix *spanIndex) selfMS(sp span) float64 {
	kids := ix.children[sp.ID]
	if len(kids) == 0 {
		return ms(sp.dur())
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := ix.spans[k]
		lo, hi := max(c.Start, sp.Start), min(c.End, sp.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	covered += curHi - curLo
	return ms(sp.dur() - time.Duration(covered))
}

// selfTotalMS sums selfMS over every span with the given name.
func (ix *spanIndex) selfTotalMS(name string) float64 {
	t := 0.0
	for _, i := range ix.byName[name] {
		t += ix.selfMS(ix.spans[i])
	}
	return t
}

// writeSpans writes the span log as JSONL: an environment line, then one
// span per line.
func writeSpans(path string, env envStamp, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env}); err != nil {
		f.Close()
		return err
	}
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
