// Package metrics provides the measurement machinery of the benchmark
// harness: streaming mean/std accumulators (Table 2), LogHistogram — the one
// latency sketch every percentile and tail in the repository is read from —
// fixed-bin Fig. 6 histograms layered on it, reliability bookkeeping (the
// 99.999 % requirement), and ASCII rendering for terminal reports.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"urllcsim/internal/sim"
)

// Accumulator is a streaming mean/variance/min/max tracker (Welford).
type Accumulator struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// AddDuration records a duration in microseconds (the paper's unit).
func (a *Accumulator) AddDuration(d sim.Duration) { a.Add(float64(d) / 1000) }

// Merge folds o into a using the parallel Welford combination (Chan et al.):
// count, min and max merge exactly; mean and m2 are the algebraically exact
// combination of the two streams, so a merged accumulator agrees with one
// that saw both streams (up to float rounding, which differs from the
// sequential order of operations but not between merge orders — merging the
// same shards in the same order always yields bit-identical results). o is
// left untouched.
func (a *Accumulator) Merge(o *Accumulator) {
	if o == nil || o.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *o
		return
	}
	n := a.n + o.n
	d := o.mean - a.mean
	a.m2 += o.m2 + d*d*float64(a.n)*float64(o.n)/float64(n)
	a.mean += d * float64(o.n) / float64(n)
	if o.min < a.min {
		a.min = o.min
	}
	if o.max > a.max {
		a.max = o.max
	}
	a.n = n
}

// Reset returns the accumulator to its empty state.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// N returns the observation count.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the running mean.
func (a *Accumulator) Mean() float64 { return a.mean }

// Std returns the population standard deviation.
func (a *Accumulator) Std() float64 {
	if a.n < 2 {
		return 0
	}
	return math.Sqrt(a.m2 / float64(a.n))
}

// Min returns the smallest observation. An empty accumulator returns 0,
// which is indistinguishable from a genuine minimum of 0 — callers that care
// must check N() > 0 first.
func (a *Accumulator) Min() float64 {
	return a.min
}

// Max returns the largest observation. Same empty-value caveat as Min: an
// empty accumulator returns 0, check N() > 0 to tell the difference.
func (a *Accumulator) Max() float64 {
	return a.max
}

// Histogram is a fixed-bin latency histogram in milliseconds over [0, Max)
// with overflow counted separately (bin width = Max/Bins) — the exact bins
// Fig. 6's ASCII plot draws. Alongside the bins it keeps an HDR LogHistogram
// of the same values in nanoseconds, which supplies N, the exact Mean and
// Percentile to within one part in 1024.
type Histogram struct {
	MaxValue float64
	Counts   []int64
	Overflow int64
	lat      LogHistogram // every recorded value, ns
}

// NewHistogram returns a histogram over [0, max) with the given bin count.
func NewHistogram(max float64, bins int) *Histogram {
	if bins <= 0 || max <= 0 {
		panic("metrics: histogram needs positive max and bins")
	}
	return &Histogram{MaxValue: max, Counts: make([]int64, bins)}
}

// AddDuration records a duration, binned in milliseconds (Fig. 6's axis
// unit). Binning clamps negatives into bin 0 and counts x ≥ MaxValue
// (boundary included) as overflow; the HDR side records the true value
// either way, so Percentile and Mean see it.
func (h *Histogram) AddDuration(d sim.Duration) {
	h.lat.AddDuration(d)
	x := float64(d) / 1e6
	if x < 0 {
		x = 0
	}
	if x >= h.MaxValue {
		h.Overflow++
		return
	}
	i := int(x / h.MaxValue * float64(len(h.Counts)))
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
}

// N returns the number of recorded values.
func (h *Histogram) N() int64 { return h.lat.N() }

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := h.MaxValue / float64(len(h.Counts))
	return (float64(i) + 0.5) * w
}

// Probability returns the fraction of samples in bin i — the y-axis of
// Fig. 6.
func (h *Histogram) Probability(i int) float64 {
	if h.N() == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N())
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) in milliseconds under
// LogHistogram.Quantile's floor-index nearest-rank rule: p ≤ 0 and p ≥ 1
// yield the exact minimum and maximum, interior quantiles are within one HDR
// bucket width (≤ 1/1024 of the value) of the exact-rank sample, and an
// empty histogram yields 0.
func (h *Histogram) Percentile(p float64) float64 {
	return float64(h.lat.Quantile(p)) / 1e6
}

// FractionBelow returns the share of samples strictly below x — e.g. the
// "sub-millisecond 4.4 % of the time" statistic for mmWave. It sums whole
// bins, which is exact because x must be a bin edge in (0, MaxValue]; any
// other x panics, like a geometry mismatch in Merge.
func (h *Histogram) FractionBelow(x float64) float64 {
	edge := x / h.MaxValue * float64(len(h.Counts))
	k := int(edge)
	if float64(k) != edge || k < 1 || k > len(h.Counts) {
		panic(fmt.Sprintf("metrics: FractionBelow(%v) is not a bin edge", x))
	}
	if h.N() == 0 {
		return 0
	}
	var below int64
	for _, c := range h.Counts[:k] {
		below += c
	}
	return float64(below) / float64(h.N())
}

// Merge folds o into h exactly: bin counts and overflow add, and the HDR
// side merges bucket-for-bucket, so h ends up equal to a histogram that saw
// both value streams. Histograms must share geometry (MaxValue, bin count);
// o is left untouched.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.N() == 0 {
		return
	}
	if h.MaxValue != o.MaxValue || len(h.Counts) != len(o.Counts) {
		panic("metrics: merging histograms with different geometry")
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Overflow += o.Overflow
	h.lat.Merge(&o.lat)
}

// Mean returns the exact sample mean in milliseconds (0 when empty).
func (h *Histogram) Mean() float64 { return h.lat.Mean() / 1e6 }

// ASCII renders the histogram as rows of "center | bar count" with width
// proportional to probability (Fig. 6 in a terminal).
func (h *Histogram) ASCII(width int) string {
	var sb strings.Builder
	maxP := 0.0
	for i := range h.Counts {
		if p := h.Probability(i); p > maxP {
			maxP = p
		}
	}
	for i := range h.Counts {
		p := h.Probability(i)
		bar := 0
		if maxP > 0 {
			bar = int(p / maxP * float64(width))
		}
		fmt.Fprintf(&sb, "%7.2f | %-*s %.4f\n", h.BinCenter(i), width, strings.Repeat("#", bar), p)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&sb, ">%6.2f | overflow %d (%.4f)\n", h.MaxValue, h.Overflow,
			float64(h.Overflow)/float64(h.N()))
	}
	return sb.String()
}

// Reliability is the deadline-miss bookkeeping of the URLLC requirement:
// reliability = delivered-within-deadline / offered.
type Reliability struct {
	Deadline sim.Duration
	Offered  int64
	Met      int64
	Lost     int64 // never delivered at all
}

// Record accounts one packet: delivered says whether it arrived, lat its
// one-way latency when delivered.
func (r *Reliability) Record(delivered bool, lat sim.Duration) {
	r.Offered++
	if !delivered {
		r.Lost++
		return
	}
	if lat <= r.Deadline {
		r.Met++
	}
}

// Merge folds o's bookkeeping into r — exact, since every field is a count.
// The deadlines must match; merging audits against different budgets is a
// programming error.
func (r *Reliability) Merge(o *Reliability) {
	if o == nil {
		return
	}
	if r.Deadline != o.Deadline {
		panic("metrics: merging reliabilities with different deadlines")
	}
	r.Offered += o.Offered
	r.Met += o.Met
	r.Lost += o.Lost
}

// Value returns the achieved reliability in [0,1].
func (r *Reliability) Value() float64 {
	if r.Offered == 0 {
		return 0
	}
	return float64(r.Met) / float64(r.Offered)
}

// Nines returns the "number of nines": 0.99999 → 5.0. Capped at 9 nines to
// keep reports finite when nothing missed.
func (r *Reliability) Nines() float64 {
	v := r.Value()
	if v >= 1 {
		return 9
	}
	if v <= 0 {
		return 0
	}
	n := -math.Log10(1 - v)
	if n > 9 {
		n = 9
	}
	return n
}

// MeetsURLLC reports whether the 99.999 % bar of §1 is reached.
func (r *Reliability) MeetsURLLC() bool { return r.Value() >= 0.99999 }

// Table renders rows of label/mean/std — the shape of Table 2.
func Table(rows []struct {
	Label string
	Acc   *Accumulator
}) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %10s %10s %8s\n", "", "Mean [µs]", "STD [µs]", "N")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %10.2f %10.2f %8d\n", r.Label, r.Acc.Mean(), r.Acc.Std(), r.Acc.N())
	}
	return sb.String()
}
