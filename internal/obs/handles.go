package obs

import (
	"time"

	"urllcsim/internal/sim"
)

// Metric handles: the one recording path for counters, gauges, timings and
// labeled families.
//
// A handle resolves its instrument once and reuses the pointer, so a
// per-slot or per-packet call site costs an increment plus the usual
// nil/live/meter branches; the name-keyed Count/SetGauge/Observe are a
// throwaway handle per call, paying a map lookup each time. Resolution is
// *lazy* — the instrument registers on first use, not at handle creation — so
// a handle cannot change registration order, summary layout or snapshot
// columns relative to the name-keyed form: first use happens at exactly the
// call site that registers the name.
//
// A handle created from a nil recorder is the disabled state, like the
// recorder itself: every method returns after one comparison. Handles are
// owned by the single simulation thread; with a live server attached every
// registry write runs under its mutex (see beginWrite).

// beginWrite opens a registry write on an enabled recorder: it starts the
// meter's clock when metering and takes the live-serve lock when a server is
// attached. Pair with endWrite. With neither attached — the default — both
// inline to two pointer comparisons.
func (r *Recorder) beginWrite() time.Time {
	if r.meter == nil && r.live == nil {
		return time.Time{}
	}
	return r.lockAndClock()
}

// lockAndClock is beginWrite's out-of-line half, kept separate so the
// common case inlines.
func (r *Recorder) lockAndClock() (t0 time.Time) {
	if r.meter != nil {
		t0 = time.Now()
	}
	if r.live != nil {
		r.live.Lock()
	}
	return t0
}

// endWrite closes a registry write opened by beginWrite, charging its wall
// time to cat.
func (r *Recorder) endWrite(cat meterCat, t0 time.Time) {
	if r.meter != nil || r.live != nil {
		r.unlockAndCharge(cat, t0)
	}
}

// unlockAndCharge is endWrite's out-of-line half.
func (r *Recorder) unlockAndCharge(cat meterCat, t0 time.Time) {
	if r.live != nil {
		r.live.Unlock()
	}
	if r.meter != nil {
		r.meter.add(cat, t0)
	}
}

// CounterHandle is a pre-resolved counter. Create with Recorder.CounterH.
type CounterHandle struct {
	r    *Recorder
	c    *Counter
	name string
}

// CounterH returns a lazy handle on the named counter. Nil-safe.
func (r *Recorder) CounterH(name string) CounterHandle {
	return CounterHandle{r: r, name: name}
}

// Add adds delta to the counter, registering it on first use.
func (h *CounterHandle) Add(delta int64) {
	r := h.r
	if r == nil {
		return
	}
	t0 := r.beginWrite()
	if h.c == nil {
		h.c = r.reg.Counter(h.name)
	}
	h.c.Add(delta)
	r.endWrite(meterMetric, t0)
}

// Inc adds one.
func (h *CounterHandle) Inc() { h.Add(1) }

// GaugeHandle is a pre-resolved gauge. Create with Recorder.GaugeH.
type GaugeHandle struct {
	r    *Recorder
	g    *Gauge
	name string
}

// GaugeH returns a lazy handle on the named gauge. Nil-safe.
func (r *Recorder) GaugeH(name string) GaugeHandle {
	return GaugeHandle{r: r, name: name}
}

// Set stores v, registering the gauge on first use.
func (h *GaugeHandle) Set(v float64) {
	r := h.r
	if r == nil {
		return
	}
	t0 := r.beginWrite()
	if h.g == nil {
		h.g = r.reg.Gauge(h.name)
	}
	h.g.Set(v)
	r.endWrite(meterMetric, t0)
}

// TimingHandle is a pre-resolved timing. Create with Recorder.TimingH.
type TimingHandle struct {
	r    *Recorder
	t    *Timing
	name string
}

// TimingH returns a lazy handle on the named timing. Nil-safe.
func (r *Recorder) TimingH(name string) TimingHandle {
	return TimingHandle{r: r, name: name}
}

// Observe records one duration, registering the timing on first use.
func (h *TimingHandle) Observe(d sim.Duration) {
	r := h.r
	if r == nil {
		return
	}
	t0 := r.beginWrite()
	if h.t == nil {
		h.t = r.reg.Timing(h.name)
	}
	h.t.Observe(d)
	r.endWrite(meterMetric, t0)
}

// CounterFamHandle is a pre-resolved labeled counter family. Create with
// CounterFamH (package-level: Go has no generic methods).
type CounterFamHandle[K LabelSet] struct {
	r    *Recorder
	f    *CounterFamily[K]
	name string
}

// CounterFamH returns a lazy handle on the named counter family. Nil-safe.
func CounterFamH[K LabelSet](r *Recorder, name string) CounterFamHandle[K] {
	return CounterFamHandle[K]{r: r, name: name}
}

// Add adds delta to the keyed counter, registering family and row on first
// use.
func (h *CounterFamHandle[K]) Add(k K, delta int64) {
	r := h.r
	if r == nil {
		return
	}
	t0 := r.beginWrite()
	if h.f == nil {
		h.f = CounterFam[K](r.reg, h.name)
	}
	h.f.At(k).Add(delta)
	r.endWrite(meterMetric, t0)
}

// GaugeFamHandle is a pre-resolved labeled gauge family. Create with
// GaugeFamH.
type GaugeFamHandle[K LabelSet] struct {
	r    *Recorder
	f    *GaugeFamily[K]
	name string
}

// GaugeFamH returns a lazy handle on the named gauge family. Nil-safe.
func GaugeFamH[K LabelSet](r *Recorder, name string) GaugeFamHandle[K] {
	return GaugeFamHandle[K]{r: r, name: name}
}

// Set stores v in the keyed gauge, registering family and row on first use.
func (h *GaugeFamHandle[K]) Set(k K, v float64) {
	r := h.r
	if r == nil {
		return
	}
	t0 := r.beginWrite()
	if h.f == nil {
		h.f = GaugeFam[K](r.reg, h.name)
	}
	h.f.At(k).Set(v)
	r.endWrite(meterMetric, t0)
}

// HistFamHandle is a pre-resolved labeled histogram family. Create with
// HistFamH.
type HistFamHandle[K LabelSet] struct {
	r    *Recorder
	f    *HistFamily[K]
	name string
}

// HistFamH returns a lazy handle on the named histogram family. Nil-safe.
func HistFamH[K LabelSet](r *Recorder, name string) HistFamHandle[K] {
	return HistFamHandle[K]{r: r, name: name}
}

// Observe records d into the keyed histogram, registering family and row on
// first use.
func (h *HistFamHandle[K]) Observe(k K, d sim.Duration) {
	r := h.r
	if r == nil {
		return
	}
	t0 := r.beginWrite()
	if h.f == nil {
		h.f = HistFam[K](r.reg, h.name)
	}
	h.f.At(k).AddDuration(d)
	r.endWrite(meterMetric, t0)
}
