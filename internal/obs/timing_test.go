package obs

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"urllcsim/internal/metrics"
	"urllcsim/internal/sim"
)

// TestTimingMatchesAccumulator: a Timing's single HDR sketch reports the
// same N, mean, std, min and max as the Welford Accumulator (Table 2's
// recorder) fed the same stream, to 1e-9 relative — on one stream and after
// the stream is split into shards and merged back in order.
func TestTimingMatchesAccumulator(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	streams := []struct {
		name string
		next func() sim.Duration
	}{
		{"exponential", func() sim.Duration { return sim.Duration(300_000 + rng.ExpFloat64()*120_000) }},
		{"uniform-wide", func() sim.Duration { return sim.Duration(rng.Int63n(int64(20 * sim.Millisecond))) }},
		{"sub-us", func() sim.Duration { return sim.Duration(rng.Intn(1000)) }},
		{"constant", func() sim.Duration { return 12 * sim.Microsecond }},
	}
	for _, s := range streams {
		for _, n := range []int{0, 1, 2, 7, 5000} {
			t.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(t *testing.T) {
				xs := make([]sim.Duration, n)
				for i := range xs {
					xs[i] = s.next()
				}
				var acc metrics.Accumulator
				whole := NewRegistry()
				for _, d := range xs {
					acc.AddDuration(d)
					whole.Timing("lat").Observe(d)
				}
				checkTimingAgainst(t, "single stream", whole.Timing("lat"), &acc)

				merged, accMerged := NewRegistry(), metrics.Accumulator{}
				for lo := 0; lo < n; {
					hi := min(n, lo+1+rng.Intn(n/3+1))
					shard, accShard := NewRegistry(), metrics.Accumulator{}
					for _, d := range xs[lo:hi] {
						shard.Timing("lat").Observe(d)
						accShard.AddDuration(d)
					}
					merged.Merge(shard)
					accMerged.Merge(&accShard)
					lo = hi
				}
				checkTimingAgainst(t, "shard merge", merged.Timing("lat"), &accMerged)
			})
		}
	}
}

func checkTimingAgainst(t *testing.T, what string, tm *Timing, acc *metrics.Accumulator) {
	t.Helper()
	h := &tm.HDR
	if h.N() != acc.N() {
		t.Fatalf("%s: n = %d, accumulator %d", what, h.N(), acc.N())
	}
	if h.N() == 0 {
		return
	}
	for _, c := range []struct {
		stat      string
		got, want float64
	}{
		{"mean", h.Mean() / 1000, acc.Mean()},
		{"std", h.Std() / 1000, acc.Std()},
		{"min", float64(h.Min()) / 1000, acc.Min()},
		{"max", float64(h.Max()) / 1000, acc.Max()},
	} {
		if diff := math.Abs(c.got - c.want); diff > 1e-9*math.Max(math.Abs(c.got), math.Abs(c.want)) {
			t.Fatalf("%s: %s = %.12g µs, accumulator %.12g µs", what, c.stat, c.got, c.want)
		}
	}
}
