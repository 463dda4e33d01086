package metrics

import (
	"math"
	"math/bits"

	"urllcsim/internal/sim"
)

// LogHistogram is an HDR-style log-bucketed histogram over non-negative
// integer values (nanosecond durations, byte counts, …). The value axis is
// split into a linear head of unit-width buckets followed by octaves of
// logWidth sub-buckets each, so the bucket containing a value v is never
// wider than max(1, v/subBuckets): quantiles are exact to one part in
// subBuckets (≈0.1 %) of the value, independent of the sample count.
//
// LogHistogram retains no raw samples — memory is O(buckets touched),
// bounded by the dynamic range of the data and never by the run length —
// and two LogHistograms merge exactly (bucket geometry is a
// package constant), so per-UE or per-shard histograms combine into a fleet
// histogram without loss. This is the machinery the p99.999 URLLC
// reliability tail needs on runs of millions of packets.
//
// Exact count, sum, minimum and maximum are tracked on the side, plus a
// Welford running mean and squared-deviation sum, so N, Mean, Std, Min and
// Max are exact (up to float rounding) and interior quantiles are clamped
// into [min, max].
const (
	// logSubBucketBits fixes the relative resolution: each octave
	// [2^e, 2^(e+1)) holds 2^logSubBucketBits sub-buckets.
	logSubBucketBits = 10
	logSubBuckets    = 1 << logSubBucketBits // sub-buckets per octave

	// logLinearMax is the top of the unit-width linear head: values below
	// it get exact (width-1) buckets.
	logLinearBits = logSubBucketBits + 1
	logLinearMax  = 1 << logLinearBits
)

// LogHistogram's zero value is an empty histogram ready to use.
type LogHistogram struct {
	counts   []int64 // grown lazily to the highest touched index
	total    int64
	sum      float64 // for Mean / Prometheus _sum; float to avoid overflow
	mean, m2 float64 // Welford running mean and squared-deviation sum, for Std
	min, max int64   // exact observed extrema (valid when total > 0)
}

// NewLogHistogram returns an empty histogram. All LogHistograms share one
// bucket geometry and therefore merge with each other.
func NewLogHistogram() *LogHistogram {
	return &LogHistogram{}
}

// logIndex maps a value to its bucket index. Negative values clamp to 0.
func logIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < logLinearMax {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // 2^e ≤ v < 2^(e+1), e ≥ logLinearBits
	shift := uint(e - logSubBucketBits)
	return logLinearMax + (e-logLinearBits)*logSubBuckets + int((v-int64(1)<<e)>>shift)
}

// logLowerBound is the inverse of logIndex: the smallest value mapping to
// bucket idx.
func logLowerBound(idx int) int64 {
	if idx < logLinearMax {
		return int64(idx)
	}
	i := idx - logLinearMax
	e := logLinearBits + i/logSubBuckets
	sub := int64(i % logSubBuckets)
	return int64(1)<<e + sub<<(e-logSubBucketBits)
}

// logWidth is the width of bucket idx.
func logWidth(idx int) int64 {
	if idx < logLinearMax {
		return 1
	}
	e := logLinearBits + (idx-logLinearMax)/logSubBuckets
	return int64(1) << (e - logSubBucketBits)
}

// BucketWidth returns the width of the bucket containing v — the accuracy
// bound of any quantile that lands in that bucket.
func (h *LogHistogram) BucketWidth(v int64) int64 { return logWidth(logIndex(v)) }

// Add records one value. Negative values clamp to 0 for binning but are
// counted; durations in this repository are never negative.
func (h *LogHistogram) Add(v int64) {
	idx := logIndex(v)
	if idx >= len(h.counts) {
		h.grow(idx + 1)
	}
	h.counts[idx]++
	h.total++
	x := float64(v)
	h.sum += x
	d := x - h.mean
	h.mean += d / float64(h.total)
	h.m2 += d * (x - h.mean)
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if h.total == 1 || v > h.max {
		h.max = v
	}
}

// AddDuration records a duration as integer nanoseconds.
func (h *LogHistogram) AddDuration(d sim.Duration) { h.Add(int64(d)) }

// Reset empties the histogram in place. The lazily-grown bucket array keeps
// its capacity (for ns-scale latencies that array is tens of kilobytes — the
// dominant allocation of a fresh registry), so a reset histogram records its
// next run without re-growing: the recycling half of the observability
// layer's steady-state zero-allocation contract. Only the touched bucket
// window is zeroed: logIndex is monotonic, so no bucket below
// logIndex(min) can hold a count, and for ns-scale latency data that skips
// the bulk of the array.
func (h *LogHistogram) Reset() {
	counts := h.counts[:0]
	if h.total > 0 {
		clear(h.counts[logIndex(h.min):])
	}
	*h = LogHistogram{counts: counts}
}

// grow extends the bucket array to at least n entries. Spare capacity (left
// behind by Reset) is re-extended in place — Reset leaves every former
// bucket zero, so the reclaimed tail is already zero.
func (h *LogHistogram) grow(n int) {
	if n <= cap(h.counts) {
		h.counts = h.counts[:n]
		return
	}
	grown := make([]int64, n)
	copy(grown, h.counts)
	h.counts = grown
}

// StorageBytes returns the bytes held by the bucket array (capacity, not
// length) — the footprint the observability layer's self-accounting reports.
func (h *LogHistogram) StorageBytes() int64 { return int64(cap(h.counts)) * 8 }

// N returns the number of recorded values.
func (h *LogHistogram) N() int64 { return h.total }

// Sum returns the sum of all recorded values (float; exact for totals below
// 2^53).
func (h *LogHistogram) Sum() float64 { return h.sum }

// Mean returns the exact sample mean (0 when empty).
func (h *LogHistogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Std returns the population standard deviation (0 below two samples),
// from the Welford squared-deviation sum: exact up to float rounding, like
// Accumulator.Std, with no bucket quantisation.
func (h *LogHistogram) Std() float64 {
	if h.total < 2 {
		return 0
	}
	return math.Sqrt(h.m2 / float64(h.total))
}

// Min returns the exact smallest recorded value (0 when empty).
func (h *LogHistogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest recorded value (0 when empty).
func (h *LogHistogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) under the floor-index
// nearest-rank rule: the bucket holding the sample at rank ⌊q·(n−1)⌋. The returned value is the bucket midpoint clamped into
// [Min, Max], so it is within one bucket width of the exact-rank sample;
// q ≤ 0 and q ≥ 1 return the exact extrema. An empty histogram returns 0.
func (h *LogHistogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(q * float64(h.total-1))
	var cum int64
	for idx, c := range h.counts {
		cum += c
		if cum > rank {
			mid := logLowerBound(idx) + logWidth(idx)/2
			if mid < h.min {
				mid = h.min
			}
			if mid > h.max {
				mid = h.max
			}
			return mid
		}
	}
	return h.max // unreachable when counts/total are consistent
}

// QuantileDuration returns Quantile as a duration (values recorded via
// AddDuration are nanoseconds).
func (h *LogHistogram) QuantileDuration(q float64) sim.Duration {
	return sim.Duration(h.Quantile(q))
}

// FractionBelow returns the share of samples strictly below v, resolved to
// bucket granularity: samples in v's own bucket count as below only when the
// whole bucket lies below v.
func (h *LogHistogram) FractionBelow(v int64) float64 {
	if h.total == 0 {
		return 0
	}
	idx := logIndex(v)
	var below int64
	for i := 0; i < idx && i < len(h.counts); i++ {
		below += h.counts[i]
	}
	return float64(below) / float64(h.total)
}

// Merge adds every sample of o into h. Bucket geometry is shared by
// construction, so the bucket merge is exact: h ends up with the buckets,
// count, sum and extrema of a histogram that observed both sample streams.
// The Welford terms combine by the parallel formula (Chan et al.), as in
// Accumulator.Merge: merging the same shards in the same order is
// bit-identical.
func (h *LogHistogram) Merge(o *LogHistogram) {
	if o == nil || o.total == 0 {
		return
	}
	if len(o.counts) > len(h.counts) {
		h.grow(len(o.counts))
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 {
		h.min, h.max, h.mean, h.m2 = o.min, o.max, o.mean, o.m2
	} else {
		n := float64(h.total + o.total)
		d := o.mean - h.mean
		h.m2 += o.m2 + d*d*float64(h.total)*float64(o.total)/n
		h.mean += d * float64(o.total) / n
		h.min = min(h.min, o.min)
		h.max = max(h.max, o.max)
	}
	h.total += o.total
	h.sum += o.sum
}

// Buckets calls f for every non-empty bucket in ascending value order with
// the bucket's inclusive upper bound and the cumulative count of samples at
// or below it — the shape Prometheus histogram exposition wants.
func (h *LogHistogram) Buckets(f func(upperInclusive int64, cumulative int64)) {
	var cum int64
	for idx, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		f(logLowerBound(idx)+logWidth(idx)-1, cum)
	}
}
