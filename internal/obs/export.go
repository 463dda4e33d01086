package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// TraceSchema versions the JSONL span/outcome/event trace format; bump on
// any breaking field change. Readers accept files with no meta line (written
// before the schema existed) but refuse an unknown version outright, so a
// report is never silently zero-filled from a format it cannot parse.
const TraceSchema = "urllcsim-trace/v1"

// jsonMeta is the first line of a JSONL trace: its schema version and, when
// the recorder sampled its packet stream, the effective sample rate — readers
// surface it so a sampled trace is never mistaken for the full population.
// Unsampled traces omit the field and stay byte-identical to pre-sampling
// writers.
type jsonMeta struct {
	Kind       string  `json:"kind"` // "meta"
	Schema     string  `json:"schema"`
	SampleRate float64 `json:"sample_rate,omitempty"`
}

// traceMeta builds the meta line for recorder r: sample rate present only
// when sampling is actually on.
func traceMeta(r *Recorder) jsonMeta {
	m := jsonMeta{Kind: "meta", Schema: TraceSchema}
	if sr := r.SampleRate(); sr < 1 {
		m.SampleRate = sr
	}
	return m
}

// wireSpan / wireOutcome / wireEvent build the JSONL wire forms, shared by
// the batch and streaming writers so the two cannot drift.
func wireSpan(s *Span) jsonSpan {
	return jsonSpan{
		Kind: "span", Packet: s.Packet, Dir: s.Dir.String(),
		Layer: s.Layer.String(), Step: s.Step, Source: s.Source.String(),
		StartUs: s.Start.Micros(), DurUs: float64(s.Dur) / 1000,
	}
}

func wireOutcome(o *Outcome) jsonOutcome {
	return jsonOutcome{
		Kind: "outcome", Packet: o.Packet, UE: o.UE, Dir: o.Dir.String(),
		Delivered: o.Delivered, LatencyUs: float64(o.Latency) / 1000,
		Attempts: o.Attempts, EndUs: o.End.Micros(),
	}
}

func wireEvent(e *Event) jsonEvent {
	return jsonEvent{
		Kind: "event", TimeUs: e.Time.Micros(), Name: e.Name,
		Layer: e.Layer.String(), Packet: e.Packet,
	}
}

// jsonSpan is the JSONL wire form of a Span. Times are µs floats, the
// paper's unit.
type jsonSpan struct {
	Kind    string  `json:"kind"` // "span"
	Packet  int     `json:"packet"`
	Dir     string  `json:"dir"`
	Layer   string  `json:"layer"`
	Step    string  `json:"step"`
	Source  string  `json:"source"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

// jsonEvent is the JSONL wire form of an Event.
type jsonEvent struct {
	Kind   string  `json:"kind"` // "event"
	TimeUs float64 `json:"time_us"`
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Packet int     `json:"packet"`
}

// jsonOutcome is the JSONL wire form of an Outcome.
type jsonOutcome struct {
	Kind      string  `json:"kind"` // "outcome"
	Packet    int     `json:"packet"`
	UE        int     `json:"ue"` // logical UE; 0 in older traces
	Dir       string  `json:"dir"`
	Delivered bool    `json:"delivered"`
	LatencyUs float64 `json:"latency_us"`
	Attempts  int     `json:"attempts"`
	EndUs     float64 `json:"end_us"` // resolution instant; 0 in pre-v1 traces
}

// WriteJSONL writes every span, outcome and event as one JSON object per
// line: spans first (recording order), then outcomes, then events. The
// format is grep- and jq-friendly, the shape related simulators (SimURLLC's
// per-seed event logs) treat as table stakes, and internal/obs/analyze
// re-ingests it losslessly (µs floats round-trip to exact nanoseconds).
func WriteJSONL(w io.Writer, r *Recorder) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(traceMeta(r)); err != nil {
		return err
	}
	for i := range r.Spans() {
		if err := enc.Encode(wireSpan(&r.Spans()[i])); err != nil {
			return err
		}
	}
	for i := range r.Outcomes() {
		if err := enc.Encode(wireOutcome(&r.Outcomes()[i])); err != nil {
			return err
		}
	}
	for i := range r.Events() {
		if err := enc.Encode(wireEvent(&r.Events()[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// JSONLStream is the streaming sibling of WriteJSONL: it mounts itself as
// the recorder's span spill, so spans are written to w during the run while
// the recorder's span log stays bounded at the spill capacity. Close writes
// the unspilled span tail, then outcomes and events — the finished stream is
// byte-identical to WriteJSONL on a recorder that retained everything.
type JSONLStream struct {
	r   *Recorder
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// StreamJSONL starts a streaming JSONL export of r into w, bounding the
// retained span log at capSpans records. The caller must Close the stream
// after the run to complete the file and unmount the spill.
func StreamJSONL(w io.Writer, r *Recorder, capSpans int) (*JSONLStream, error) {
	st := &JSONLStream{r: r, bw: bufio.NewWriter(w)}
	st.enc = json.NewEncoder(st.bw)
	if err := st.enc.Encode(traceMeta(r)); err != nil {
		return nil, err
	}
	r.SpillSpans(capSpans, st.spillSpans)
	return st, nil
}

// spillSpans is the recorder's spill callback: the batch aliases storage the
// recorder recycles right after, so it is fully encoded before returning.
func (st *JSONLStream) spillSpans(spans []Span) {
	if st.err != nil {
		return
	}
	for i := range spans {
		if err := st.enc.Encode(wireSpan(&spans[i])); err != nil {
			st.err = err
			return
		}
	}
}

// Close unmounts the spill and writes the remaining records. Returns the
// first error seen anywhere in the stream.
func (st *JSONLStream) Close() error {
	st.spillSpans(st.r.Spans())
	st.r.SpillSpans(0, nil)
	if st.err == nil {
		for i := range st.r.Outcomes() {
			if err := st.enc.Encode(wireOutcome(&st.r.Outcomes()[i])); err != nil {
				st.err = err
				break
			}
		}
	}
	if st.err == nil {
		for i := range st.r.Events() {
			if err := st.enc.Encode(wireEvent(&st.r.Events()[i])); err != nil {
				st.err = err
				break
			}
		}
	}
	if st.err != nil {
		return st.err
	}
	return st.bw.Flush()
}

// chromeEvent is one entry of the Chrome trace-event format, loadable in
// Perfetto (ui.perfetto.dev) and chrome://tracing. ts/dur are in
// microseconds per the format spec.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object container variant of the format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Process ids used in the Chrome trace: one per direction so Perfetto
// groups UL and DL journeys, plus one for system-wide counters.
const (
	chromePidSystem = 0
	chromePidUL     = 1
	chromePidDL     = 2
)

func chromePid(d Dir) int {
	switch d {
	case DirUL:
		return chromePidUL
	case DirDL:
		return chromePidDL
	default:
		return chromePidSystem
	}
}

// WriteChromeTrace writes the recorded spans, events and counter snapshots
// as Chrome trace-event JSON. Each packet is a thread ("packet N") inside
// the UL or DL process; spans are complete ("X") events attributed to the
// paper's latency source via the cat field; counter snapshots become "C"
// events so Perfetto renders slot-aligned counter tracks.
func WriteChromeTrace(w io.Writer, r *Recorder) error {
	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}

	named := map[[2]int]bool{} // (pid, tid) → thread_name emitted
	meta := func(pid int, name string) {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
	}
	meta(chromePidSystem, "system")
	meta(chromePidUL, "uplink")
	meta(chromePidDL, "downlink")

	for _, s := range r.Spans() {
		pid := chromePid(s.Dir)
		key := [2]int{pid, s.Packet}
		if !named[key] {
			named[key] = true
			tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: pid, Tid: s.Packet,
				Args: map[string]any{"name": fmt.Sprintf("packet %d", s.Packet)},
			})
		}
		dur := float64(s.Dur) / 1000
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Step, Cat: s.Source.String(), Ph: "X",
			Ts: s.Start.Micros(), Dur: &dur, Pid: pid, Tid: s.Packet,
			Args: map[string]any{
				"packet": s.Packet,
				"layer":  s.Layer.String(),
				"source": s.Source.String(),
			},
		})
	}
	for _, e := range r.Events() {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: e.Name, Cat: e.Layer.String(), Ph: "i",
			Ts: e.Time.Micros(), Pid: chromePidSystem, Tid: 0,
			Args: map[string]any{"packet": e.Packet},
		})
	}
	if reg := r.Metrics(); reg != nil {
		counters := reg.Counters()
		for _, snap := range reg.Snapshots() {
			for i, v := range snap.Counters {
				tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
					Name: counters[i].Name, Ph: "C",
					Ts: snap.T.Micros(), Pid: chromePidSystem, Tid: 0,
					Args: map[string]any{"value": v},
				})
			}
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// WriteMetricsCSV writes a summary of every counter, gauge and timing as
// CSV rows: kind,name,value,mean_us,std_us,p50_us,p99_us,max_us,n.
// Counters fill only value; gauges fill value; timings fill the stats, all
// read from the timing's HDR histogram: mean, std, max and n exact, p50 and
// p99 exact-rank to one bucket width (≤1/1024 of the value).
func WriteMetricsCSV(w io.Writer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "kind,name,value,mean_us,std_us,p50_us,p99_us,max_us,n"); err != nil {
		return err
	}
	for _, c := range reg.Counters() {
		fmt.Fprintf(bw, "counter,%s,%d,,,,,,\n", csvEscape(c.Name), c.Value())
	}
	for _, g := range reg.Gauges() {
		fmt.Fprintf(bw, "gauge,%s,%g,,,,,,\n", csvEscape(g.Name), g.Value())
	}
	for _, t := range reg.Timings() {
		h := &t.HDR
		fmt.Fprintf(bw, "timing,%s,,%.3f,%.3f,%.3f,%.3f,%.3f,%d\n",
			csvEscape(t.Name), h.Mean()/1000, h.Std()/1000,
			float64(h.Quantile(0.5))/1000, float64(h.Quantile(0.99))/1000,
			float64(h.Max())/1000, h.N())
	}
	return bw.Flush()
}

// WriteSnapshotsCSV writes the slot-aligned snapshot series as CSV: one row
// per snapshot, one column per counter and gauge (registration order).
// Metrics registered after a snapshot was taken read as empty cells in the
// earlier rows.
func WriteSnapshotsCSV(w io.Writer, reg *Registry) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "t_us")
	for _, c := range reg.Counters() {
		fmt.Fprintf(bw, ",%s", csvEscape(c.Name))
	}
	for _, g := range reg.Gauges() {
		fmt.Fprintf(bw, ",%s", csvEscape(g.Name))
	}
	fmt.Fprintln(bw)
	nc, ng := len(reg.Counters()), len(reg.Gauges())
	for _, s := range reg.Snapshots() {
		fmt.Fprintf(bw, "%.2f", s.T.Micros())
		for i := 0; i < nc; i++ {
			if i < len(s.Counters) {
				fmt.Fprintf(bw, ",%d", s.Counters[i])
			} else {
				fmt.Fprint(bw, ",")
			}
		}
		for i := 0; i < ng; i++ {
			if i < len(s.Gauges) {
				fmt.Fprintf(bw, ",%g", s.Gauges[i])
			} else {
				fmt.Fprint(bw, ",")
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// csvEscape quotes a field if it contains a comma or quote. Metric names in
// this repository never do, but exporters should not corrupt output when
// one does.
func csvEscape(s string) string {
	for _, r := range s {
		if r == ',' || r == '"' || r == '\n' {
			q := "\""
			for _, c := range s {
				if c == '"' {
					q += "\"\""
				} else {
					q += string(c)
				}
			}
			return q + "\""
		}
	}
	return s
}

// WriteFile opens path, runs write against it and closes it — the shared
// shape of every -trace-out/-metrics-out flag in cmd/.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
