package urllcsim

import (
	"sort"
	"testing"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/sim"
)

// TestSpanPartition is the structural invariant behind the Fig. 3 journey:
// for every first-attempt delivery, the per-packet spans recorded by the
// observability layer must tile the interval from offer to delivery exactly —
// no gaps, no overlaps — so their durations sum to the reported one-way
// latency. Checked for grant-based UL, grant-free UL and DL across seeds.
func TestSpanPartition(t *testing.T) {
	cases := []struct {
		name      string
		grantFree bool
		uplink    bool
	}{
		{"ul-grant-based", false, true},
		{"ul-grant-free", true, true},
		{"dl", false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				rec := obs.NewRecorder()
				sc, err := NewScenario(ScenarioConfig{
					Pattern:   PatternDDDU,
					SlotScale: Slot0p5ms,
					GrantFree: tc.grantFree,
					Radio:     RadioUSB2,
					Seed:      seed,
					Obs:       rec,
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 20; i++ {
					at := time.Duration(i)*2*time.Millisecond + 337*time.Microsecond
					if tc.uplink {
						sc.SendUplink(at, 32)
					} else {
						sc.SendDownlink(at, 32)
					}
				}
				results := sc.Run(100 * time.Millisecond)
				if len(results) == 0 {
					t.Fatalf("seed %d: no packets resolved", seed)
				}
				checked := 0
				for _, r := range results {
					// Retransmitted packets revisit MAC/PHY, so their spans
					// legitimately overlap the HARQ round-trip; the exact
					// partition holds for clean first-attempt deliveries.
					if !r.Delivered || r.Attempts != 1 {
						continue
					}
					verifyPartition(t, seed, r, rec.PacketSpans(r.ID))
					checked++
				}
				if checked == 0 {
					t.Fatalf("seed %d: no first-attempt deliveries to check", seed)
				}
			}
		})
	}
}

func verifyPartition(t *testing.T, seed uint64, r PacketResult, spans []obs.Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatalf("seed %d pkt %d: no spans recorded", seed, r.ID)
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum sim.Duration
	for i, s := range spans {
		sum += s.Dur
		if i == 0 {
			continue
		}
		if prev := spans[i-1]; s.Start != prev.End() {
			t.Fatalf("seed %d pkt %d: gap/overlap between %q (ends %v) and %q (starts %v)",
				seed, r.ID, prev.Step, prev.End(), s.Step, s.Start)
		}
	}
	if got, want := time.Duration(sum), r.Latency; got != want {
		t.Fatalf("seed %d pkt %d: span durations sum to %v, latency is %v (Δ %v)",
			seed, r.ID, got, want, got-want)
	}
	if tiled := spans[len(spans)-1].End().Sub(spans[0].Start); time.Duration(tiled) != r.Latency {
		t.Fatalf("seed %d pkt %d: spans tile %v, latency is %v",
			seed, r.ID, time.Duration(tiled), r.Latency)
	}
}

// BenchmarkTracingOverhead compares a full-stack scenario run with
// observability disabled (nil recorder — the default) against the same run
// with a live recorder capturing spans, counters and slot snapshots. The
// Disabled case must stay within noise of the pre-observability simulator:
// the entire hot path is nil-receiver method calls. Enabled reuses one
// recorder across ops via Reset — the pooled steady state a long sweep or
// service sees, where span/outcome/event storage and every registry
// instrument are already allocated. Sampled adds a 1/16 deterministic
// head sample on top, the configuration `-sample-rate 0.0625` runs.
func BenchmarkTracingOverhead(b *testing.B) {
	run := func(b *testing.B, rec *obs.Recorder) {
		sc, err := NewScenario(ScenarioConfig{
			Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
			Seed: 1, Obs: rec,
		})
		if err != nil {
			b.Fatal(err)
		}
		const packets = 32
		for i := 0; i < packets; i++ {
			at := time.Duration(i) * 2 * time.Millisecond
			sc.SendUplink(at+137*time.Microsecond, 32)
			sc.SendDownlink(at+731*time.Microsecond, 32)
		}
		if rs := sc.Run((packets + 50) * 2 * time.Millisecond); len(rs) != 2*packets {
			b.Fatalf("resolved %d/%d", len(rs), 2*packets)
		}
	}
	b.Run("Disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, nil)
		}
	})
	b.Run("Enabled", func(b *testing.B) {
		b.ReportAllocs()
		rec := obs.NewRecorder()
		run(b, rec) // warm: fill span/outcome capacity, register instruments
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Reset()
			run(b, rec)
		}
	})
	b.Run("Sampled", func(b *testing.B) {
		b.ReportAllocs()
		rec := obs.NewRecorder()
		rec.SetSampling(1.0/16, 1)
		run(b, rec)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.Reset()
			run(b, rec)
		}
	})
}

// BenchmarkFlightRecorderOverhead is BenchmarkScenarioThroughput with a
// retention-free recorder and a flight-recorder tap attached — the
// configuration `urllcsim -flight-out` runs. The events/sec gap between the
// two is the flight recorder's whole-run cost.
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	b.ReportAllocs()
	rec := obs.NewRecorder()
	rec.SetRetention(false, false)
	fr := flight.New(flight.Config{Deadline: 500 * sim.Microsecond, TopK: flight.DefaultTopK})
	rec.SetTap(fr)
	sc, err := NewScenario(ScenarioConfig{
		Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2, Seed: 1, Obs: rec,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.SendDownlink(time.Duration(i)*2*time.Millisecond, 32)
	}
	if rs := sc.Run(time.Duration(b.N+50) * 2 * time.Millisecond); len(rs) != b.N {
		b.Fatalf("resolved %d/%d", len(rs), b.N)
	}
	if st := fr.Stats(); st.Resolved != b.N {
		b.Fatalf("flight recorder resolved %d/%d", st.Resolved, b.N)
	}
	b.ReportMetric(float64(sc.Engine().Steps())/b.Elapsed().Seconds(), "events/sec")
}
