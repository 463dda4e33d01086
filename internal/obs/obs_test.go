package obs

import (
	"strings"
	"testing"

	"urllcsim/internal/core"
	"urllcsim/internal/sim"
)

// TestNilRecorderIsSafe exercises every recording method on a nil receiver:
// the disabled path must be a no-op, never a panic.
func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Span(Span{})
	r.PacketSpan(1, DirUL, LayerPHY, "x", core.Radio, 0, 0)
	r.Mark(0, LayerEngine, "e", -1)
	r.EngineEvent(0, "e")
	r.Count("c", 1)
	r.SetGauge("g", 1)
	r.Observe("t", sim.Microsecond)
	r.SlotSnapshot(0)
	r.CaptureEngineEvents(true)
	if r.Spans() != nil || r.Events() != nil || r.Metrics() != nil || r.PacketSpans(0) != nil {
		t.Fatal("nil recorder returned non-nil data")
	}
}

func TestRecorderSpansAndEvents(t *testing.T) {
	r := NewRecorder()
	r.PacketSpan(7, DirUL, LayerSched, "wait", core.Protocol, sim.Time(1000), 2*sim.Microsecond)
	r.PacketSpan(8, DirDL, LayerAir, "on air", core.Radio, sim.Time(3000), sim.Microsecond)
	r.PacketSpan(7, DirUL, LayerPHY, "decode", core.Processing, sim.Time(3000), sim.Microsecond)
	r.Mark(sim.Time(500), LayerSched, "tick", -1)

	if n := len(r.Spans()); n != 3 {
		t.Fatalf("recorded %d spans, want 3", n)
	}
	ps := r.PacketSpans(7)
	if len(ps) != 2 || ps[0].Step != "wait" || ps[1].Step != "decode" {
		t.Fatalf("PacketSpans(7) = %+v", ps)
	}
	if got := ps[0].End(); got != sim.Time(3000) {
		t.Fatalf("span end %v, want 3000", got)
	}
	if len(r.Events()) != 1 || r.Events()[0].Name != "tick" {
		t.Fatalf("events = %+v", r.Events())
	}
}

// TestEngineSinkAndLegacyTracer proves the engine's structured sink and the
// legacy Tracer hook observe the same event stream, and that a legacy func
// can be mounted on the structured path through the TracerFunc adapter.
func TestEngineSinkAndLegacyTracer(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder()
	r.CaptureEngineEvents(true)

	var legacy []string
	var adapted []string
	eng.Tracer = func(_ sim.Time, name string) { legacy = append(legacy, name) }
	eng.Sink = MultiSink{
		r,
		TracerFunc(func(_ sim.Time, name string) { adapted = append(adapted, name) }),
	}

	eng.After(sim.Microsecond, "a", func() {})
	eng.After(2*sim.Microsecond, "b", func() {})
	eng.RunAll()

	want := []string{"a", "b"}
	for _, got := range [][]string{legacy, adapted} {
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("hook saw %v, want %v", got, want)
		}
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Name != "a" || evs[0].Layer != LayerEngine || evs[0].Packet != -1 {
		t.Fatalf("recorder events = %+v", evs)
	}
	if evs[1].Time != sim.Time(2000) {
		t.Fatalf("event time %v, want 2000", evs[1].Time)
	}
}

// TestEngineEventsDroppedByDefault: a recorder attached as an engine sink
// must not retain the (huge) engine event stream unless asked.
func TestEngineEventsDroppedByDefault(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder()
	eng.Sink = r
	eng.After(sim.Microsecond, "a", func() {})
	eng.RunAll()
	if len(r.Events()) != 0 {
		t.Fatalf("engine events retained without CaptureEngineEvents: %+v", r.Events())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	c1 := reg.Counter("x")
	c1.Inc()
	c1.Add(2)
	if c2 := reg.Counter("x"); c2 != c1 || c2.Value() != 3 {
		t.Fatalf("counter not shared: %v %v", c1, c2)
	}
	g := reg.Gauge("depth")
	g.Set(4)
	if reg.Gauge("depth").Value() != 4 {
		t.Fatal("gauge not shared")
	}
	tm := reg.Timing("lat")
	tm.Observe(100 * sim.Microsecond)
	tm.Observe(300 * sim.Microsecond)
	if reg.Timing("lat").Acc.N() != 2 {
		t.Fatal("timing not shared")
	}
	if mean := reg.Timing("lat").Acc.Mean(); mean != 200 {
		t.Fatalf("timing mean %v µs, want 200", mean)
	}
	if len(reg.Counters()) != 1 || len(reg.Gauges()) != 1 || len(reg.Timings()) != 1 {
		t.Fatal("registration order lists wrong length")
	}
}

// TestSnapshotsAreRaggedSafe: metrics registered after a snapshot must not
// corrupt earlier snapshots, and later snapshots carry the new columns.
func TestSnapshotsAreRaggedSafe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a").Inc()
	reg.Snapshot(sim.Time(1000))
	reg.Counter("b").Add(5)
	reg.Gauge("g").Set(2.5)
	reg.Snapshot(sim.Time(2000))

	snaps := reg.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	if len(snaps[0].Counters) != 1 || snaps[0].Counters[0] != 1 {
		t.Fatalf("first snapshot %+v", snaps[0])
	}
	if len(snaps[1].Counters) != 2 || snaps[1].Counters[1] != 5 || snaps[1].Gauges[0] != 2.5 {
		t.Fatalf("second snapshot %+v", snaps[1])
	}
}

func TestRegistrySummary(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("harq.retx").Add(3)
	reg.Gauge("rlc.depth").Set(7)
	reg.Timing("lat.ul").Observe(500 * sim.Microsecond)
	s := reg.Summary()
	for _, want := range []string{"harq.retx", "3", "rlc.depth", "7.00", "lat.ul", "500.00"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestLayerAndDirStrings(t *testing.T) {
	if LayerSDAP.String() != "SDAP" || LayerBus.String() != "bus" || LayerAir.String() != "air" {
		t.Fatal("layer names wrong")
	}
	if Layer(200).String() != "layer?" {
		t.Fatal("out-of-range layer not handled")
	}
	if DirUL.String() != "UL" || DirDL.String() != "DL" || DirNone.String() != "-" {
		t.Fatal("dir names wrong")
	}
}

func TestRegistryMerge(t *testing.T) {
	r1 := NewRegistry()
	r1.Counter("pkt.offered").Add(2)
	r1.Gauge("queue.depth").Set(1.5)
	r1.Timing("pkt.latency").Observe(100 * sim.Microsecond)
	r1.Timing("pkt.latency").Observe(200 * sim.Microsecond)
	r1.Snapshot(0)

	r2 := NewRegistry()
	r2.Counter("pkt.offered").Add(3)
	r2.Counter("pkt.lost").Add(7)
	r2.Gauge("queue.depth").Set(2.5)
	r2.Timing("pkt.latency").Observe(300 * sim.Microsecond)
	r2.Timing("bus.submit").Observe(50 * sim.Microsecond)

	m := NewRegistry()
	m.Merge(r1)
	m.Merge(r2)
	m.Merge(nil)

	if got := m.Counter("pkt.offered").Value(); got != 5 {
		t.Fatalf("counters must add: pkt.offered = %d", got)
	}
	if got := m.Counter("pkt.lost").Value(); got != 7 {
		t.Fatalf("new instruments must register: pkt.lost = %d", got)
	}
	if got := m.Gauge("queue.depth").Value(); got != 2.5 {
		t.Fatalf("gauges are last-value-wins: got %v", got)
	}
	lat := m.Timing("pkt.latency")
	if lat.Acc.N() != 3 || lat.Acc.Mean() != 200 {
		t.Fatalf("timing distributions must merge: n=%d mean=%v", lat.Acc.N(), lat.Acc.Mean())
	}
	if lat.HDR.N() != 3 || lat.Hist.N() != 3 {
		t.Fatalf("histograms not merged: hdr=%d hist=%d", lat.HDR.N(), lat.Hist.N())
	}
	if m.Timing("bus.submit").Acc.N() != 1 {
		t.Fatal("timing new to the destination lost")
	}
	// Registration order: r1's instruments first, then r2's novelties.
	cs := m.Counters()
	if len(cs) != 2 || cs[0].Name != "pkt.offered" || cs[1].Name != "pkt.lost" {
		t.Fatalf("merged registration order nondeterministic: %v", cs)
	}
	// Snapshots stay with their shard: their columns index the source
	// registry's registration order.
	if len(m.Snapshots()) != 0 {
		t.Fatalf("snapshots must not merge, got %d", len(m.Snapshots()))
	}
	// Sources untouched.
	if r1.Counter("pkt.offered").Value() != 2 || r2.Counter("pkt.offered").Value() != 3 {
		t.Fatal("merge mutated a source registry")
	}
}

// hotOps is the number of record rounds the hot-path benchmarks and
// zero-alloc tests drive per op.
const hotOps = 1024

// recordHot drives the three calls model code makes most — counter bump,
// latency observation, span append — hotOps times through r (nil =
// disabled).
func recordHot(r *Recorder) {
	for j := 0; j < hotOps; j++ {
		r.Count("bench.counter", 1)
		r.Observe("bench.timing", sim.Duration(j)*sim.Microsecond)
		r.PacketSpan(j, DirUL, LayerMAC, "bench", core.Processing, sim.Time(j*1000), sim.Microsecond)
	}
}

// recordLabeled drives the per-UE counter, gauge and histogram family
// updates the node layer performs per packet and per tick, over 8 UEs.
func recordLabeled(r *Recorder) {
	for j := 0; j < hotOps; j++ {
		ue := j % 8
		CountIn(r, "pkt.by_ue", PktEvent{UE: ue, Dir: DirUL, Event: "delivered"}, 1)
		GaugeIn(r, "slot.ue_dl_take_bytes", UEKey{UE: ue}, float64(j))
		ObserveIn(r, "lat.by_ue", UEDir{UE: ue, Dir: DirUL}, sim.Duration(j)*sim.Microsecond)
	}
}

// sampledRecorder returns a recorder with a 1/16 deterministic span head
// sample: counters and timings stay exact, spans keep the admitted subset.
func sampledRecorder() *Recorder {
	r := NewRecorder()
	r.SetSampling(1.0/16, 1)
	return r
}

// TestHotPathZeroAlloc pins the record paths that must not allocate: the
// nil-recorder (disabled) flat and labeled paths, and a warmed sampling
// recorder's record+Reset cycle (TestResetSteadyZeroAlloc covers the
// unsampled one). Each cycle runs once first so every slab sits at its
// high-water capacity.
func TestHotPathZeroAlloc(t *testing.T) {
	sampled := sampledRecorder()
	cases := []struct {
		name  string
		cycle func()
	}{
		{"ObsDisabled", func() { recordHot(nil) }},
		{"LabeledDisabled", func() { recordLabeled(nil) }},
		{"ObsSampled", func() { recordHot(sampled); sampled.Reset() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.cycle() // warm
			if allocs := testing.AllocsPerRun(10, c.cycle); allocs != 0 {
				t.Fatalf("%.1f allocs per %d-round cycle, want 0", allocs, hotOps)
			}
		})
	}
}

func benchRecords(b *testing.B, cycle func()) {
	b.ReportAllocs()
	cycle() // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.ReportMetric(float64(b.N)*hotOps*3/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkObsRecord pays a fresh recorder per op: the enabled hot path
// including every slab's first growth.
func BenchmarkObsRecord(b *testing.B) {
	benchRecords(b, func() { recordHot(NewRecorder()) })
}

// BenchmarkObsDisabled is the nil-recorder path the tracing-overhead gate
// protects.
func BenchmarkObsDisabled(b *testing.B) {
	benchRecords(b, func() { recordHot(nil) })
}

// BenchmarkObsEnabledSteady is the pooled reuse cycle a sweep replica or a
// long-running service drives: record, then Reset. TestResetSteadyZeroAlloc
// gates its 0 allocs/op.
func BenchmarkObsEnabledSteady(b *testing.B) {
	r := NewRecorder()
	benchRecords(b, func() { recordHot(r); r.Reset() })
}

// BenchmarkObsSampled is BenchmarkObsEnabledSteady under 1/16 span sampling;
// the gap between the two is what -sample-rate buys on the record path.
func BenchmarkObsSampled(b *testing.B) {
	r := sampledRecorder()
	benchRecords(b, func() { recordHot(r); r.Reset() })
}

// BenchmarkLabeledRegistry pays a fresh recorder per op for the labeled
// families.
func BenchmarkLabeledRegistry(b *testing.B) {
	benchRecords(b, func() { recordLabeled(NewRecorder()) })
}

// BenchmarkLabeledDisabled is the per-packet cost every unlabeled run pays
// for the dimensional layer existing.
func BenchmarkLabeledDisabled(b *testing.B) {
	benchRecords(b, func() { recordLabeled(nil) })
}
