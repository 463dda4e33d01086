package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one interval the benchmark recorded around a call it made into
// the program: name, start, end, and the index of the span that contains it
// (-1 for a root). Spans stay in memory until the run ends.
type span struct {
	name   string
	parent int
	start  time.Time
	end    time.Time
	n      int // calls the span wraps (1 unless it wraps an offer loop)
}

// tracer records spans from the benchmark's own files. A nil *tracer is
// the untraced run: every method is a no-op, so untraced timing pays one
// nil check per call site.
type tracer struct {
	spans []span
	open  []int // stack of open span indices
	epoch time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now(), n: 1})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span; n is the number of calls it wrapped.
func (t *tracer) end(n int) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = time.Now()
	t.spans[i].n = n
}

// selfTime is the summed self time of the spans of one name, and how many
// there were.
type selfTime struct {
	self  time.Duration
	count int
}

// selfTimes returns, per span name, the summed self time (duration minus
// the part covered by direct children) and the number of spans.
func (t *tracer) selfTimes() map[string]selfTime {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := map[string]selfTime{}
	for i, s := range t.spans {
		e := out[s.name]
		e.self += s.end.Sub(s.start) - child[i]
		e.count++
		out[s.name] = e
	}
	return out
}

// writeJSONL writes the fingerprint, then one line per span (times in µs
// from the tracer's epoch), then one self-time summary line per span name.
func (t *tracer) writeJSONL(w io.Writer, fp fingerprint) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]any{"kind": "meta", "fingerprint": fp}); err != nil {
		return err
	}
	us := func(at time.Time) float64 { return float64(at.Sub(t.epoch).Nanoseconds()) / 1e3 }
	for i, s := range t.spans {
		if err := enc.Encode(map[string]any{
			"kind": "span", "id": i, "parent": s.parent, "name": s.name,
			"start_us": us(s.start), "end_us": us(s.end), "calls": s.n,
		}); err != nil {
			return err
		}
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]any{
			"kind": "self", "name": n, "spans": self[n].count,
			"self_us": float64(self[n].self.Nanoseconds()) / 1e3,
		}); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
