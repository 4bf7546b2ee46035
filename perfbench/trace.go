package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// tracer records spans in memory as (name, start, end, parent) around the
// benchmark's own calls into each layer. It is single-goroutine: every
// span is opened and closed on the goroutine that drives the workload,
// so spans nest strictly and a span's children lie inside it.
type tracer struct {
	t0    time.Time
	names []string
	ids   map[string]int32
	spans []span
	stack []int32
}

type span struct {
	name       int32
	parent     int32 // index into spans, -1 for a root
	start, end int64 // nanoseconds since t0
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]int32{}}
}

// id interns a span name; resolve hot-path names once, outside the loop.
func (t *tracer) id(name string) int32 {
	if i, ok := t.ids[name]; ok {
		return i
	}
	i := int32(len(t.names))
	t.names = append(t.names, name)
	t.ids[name] = i
	return i
}

// begin opens a span named by id under the innermost open span.
func (t *tracer) begin(id int32) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: id, parent: parent, start: int64(time.Since(t.t0))})
}

// end closes the innermost open span.
func (t *tracer) end() {
	n := len(t.stack) - 1
	t.spans[t.stack[n]].end = int64(time.Since(t.t0))
	t.stack = t.stack[:n]
}

// do runs fn as one span.
func (t *tracer) do(name string, fn func() error) error {
	t.begin(t.id(name))
	defer t.end()
	return fn()
}

// layerTime is one span name's aggregate.
type layerTime struct {
	count      int64
	total, own time.Duration // own = self time: total minus child spans
}

// aggregate sums total and self time per span name.
func (t *tracer) aggregate() map[string]*layerTime {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := out[t.names[s.name]]
		if lt == nil {
			lt = &layerTime{}
			out[t.names[s.name]] = lt
		}
		lt.count++
		lt.total += time.Duration(s.end - s.start)
		lt.own += time.Duration(s.end - s.start - child[i])
	}
	return out
}

// writeSpans writes every span as a tab-separated line
// (index, name, start_ns, end_ns, parent) followed by the per-name
// aggregate, so a run can be inspected after the fact.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# span\tname\tstart_ns\tend_ns\tparent")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", i, t.names[s.name], s.start, s.end, s.parent)
	}
	agg := t.aggregate()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "# name\tcount\ttotal_ns\tself_ns")
	for _, n := range names {
		a := agg[n]
		fmt.Fprintf(w, "# %s\t%d\t%d\t%d\n", n, a.count, a.total.Nanoseconds(), a.own.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
