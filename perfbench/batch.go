package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"urllcsim"
	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/prof"
)

// deadline is the paper's URLLC one-way budget, audited by cell500-kpi and
// used for urllcsim.deadline_met_ratio on every workload.
const deadline = 500 * time.Microsecond

// accounting is the fate of every offered packet at the end of a batch.
type accounting struct {
	offered, delivered, lost, unresolved int
	// violation names the first broken invariant; "" when the books hold.
	violation string
}

// failed returns the operations the batch counts as failed: every packet
// when an invariant broke, otherwise the unresolved ones.
func (a accounting) failed() int {
	if a.violation != "" {
		return a.offered
	}
	return a.unresolved
}

// account checks that every offered id resolves exactly once and that
// offered = delivered + lost + unresolved. Simulated HARQ loss is a model
// outcome; only packets that neither deliver nor are declared lost by the
// drain cap are unresolved.
func account(ids []int, results []urllcsim.PacketResult) accounting {
	a := accounting{offered: len(ids)}
	resolved := make(map[int]bool, len(ids))
	for _, id := range ids {
		if _, dup := resolved[id]; dup && a.violation == "" {
			a.violation = fmt.Sprintf("id %d offered twice", id)
		}
		resolved[id] = false
	}
	for _, r := range results {
		done, ok := resolved[r.ID]
		switch {
		case !ok:
			if a.violation == "" {
				a.violation = fmt.Sprintf("result for id %d that was never offered", r.ID)
			}
			continue
		case done:
			if a.violation == "" {
				a.violation = fmt.Sprintf("id %d resolved twice", r.ID)
			}
			continue
		}
		resolved[r.ID] = true
		if r.Delivered {
			a.delivered++
		} else {
			a.lost++
		}
	}
	for _, done := range resolved {
		if !done {
			a.unresolved++
		}
	}
	if a.violation == "" && a.offered != a.delivered+a.lost+a.unresolved {
		a.violation = fmt.Sprintf("offered %d != delivered %d + lost %d + unresolved %d",
			a.offered, a.delivered, a.lost, a.unresolved)
	}
	return a
}

// counters are the scenario's simulated counters after the run.
type counters struct {
	srs, grants, radioMisses, phyLosses int
}

// batch is one execution of a workload: build, offer, run, (KPI pass and
// export), then the benchmark's own checks outside the timed window.
type batch struct {
	setup    time.Duration // workload start to the first Run call
	window   time.Duration // first Run call to the last output
	cpu      time.Duration // process user+sys CPU over the window
	heapLive uint64        // live heap after a forced GC, outputs reachable
	acct     accounting
	digest   uint64
	counters counters
	// results are the simulated packet fates. session.one drops them once
	// the batch is checked, so no batch's results reach a later heap_live.
	results []urllcsim.PacketResult

	// Traced batches only.
	prof       *prof.Report
	poolAllocs uint64
	mem        memDelta
	gcCPU      float64 // seconds of GC CPU over the window
}

// memDelta is the Go runtime's allocation and GC activity over a window.
type memDelta struct {
	allocs, allocBytes uint64
	gcCycles           uint32
	gcPauseNs          uint64
}

// countingDiscard is the JSONL export sink: it keeps only the byte count,
// which goes into the result digest.
type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// processCPU returns the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUSeconds reads the runtime's estimate of CPU spent in GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// setUp is a batch's set-up: the C2 recorder for the KPI workload, the
// scenario, and every arrival offered. Its wall time is setup_s.
func setUp(w workload, seed uint64, in []arrival, tr *tracer) (sc *urllcsim.Scenario, rec *obs.Recorder, ids []int, err error) {
	cfg := w.cfg
	cfg.Seed = seed
	if w.kpi {
		tr.begin("obs.NewRecorder")
		rec = obs.NewRecorder()
		rec.EnableSlotLedger()
		tr.end(1)
		cfg.Obs = rec
		cfg.Deadline = deadline
	}
	tr.begin("urllcsim.NewScenario")
	sc, err = urllcsim.NewScenario(cfg)
	tr.end(1)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: new scenario: %w", w.name, err)
	}
	tr.begin("urllcsim.Scenario.SendFrom")
	ids = make([]int, len(in))
	for i, a := range in {
		if a.ul {
			ids[i] = sc.SendUplinkFrom(a.ue, a.at, a.bytes)
		} else {
			ids[i] = sc.SendDownlinkFrom(a.ue, a.at, a.bytes)
		}
	}
	tr.end(len(in))
	return sc, rec, ids, nil
}

// runBatch executes one batch of w on the pre-generated inputs. tr == nil
// is the untraced run that end-to-end metrics come from; a non-nil tracer
// also mounts prof.Attach (and MeterObs on the KPI recorder) and records
// spans around every public call.
func runBatch(w workload, seed uint64, in []arrival, tr *tracer) (b batch, err error) {
	traced := tr != nil
	var last time.Duration
	for _, a := range in {
		last = max(last, a.at)
	}

	tr.begin("batch")
	t0 := time.Now()
	sc, rec, ids, err := setUp(w, seed, in, tr)
	if err != nil {
		return b, err
	}

	var p *prof.Profiler
	var m0 runtime.MemStats
	var gc0 float64
	if traced {
		tr.begin("prof.Attach")
		p = prof.Attach(sc.Engine())
		p.MeterObs(rec)
		tr.end(1)
		runtime.ReadMemStats(&m0)
		gc0 = gcCPUSeconds()
	}

	t1 := time.Now()
	cpu0 := processCPU()
	// Run copies out every resolved packet on each call, so the drain
	// doubles its step: the calls grow with the log of the drain time.
	horizon := last + 200*time.Millisecond
	capAt := last + w.drainCap
	tr.begin("urllcsim.Scenario.Run")
	results := sc.Run(horizon)
	tr.end(1)
	for step := 100 * time.Millisecond; len(results) < len(ids) && horizon < capAt; step *= 2 {
		horizon = min(horizon+step, capAt)
		tr.begin("urllcsim.Scenario.Run")
		results = sc.Run(horizon)
		tr.end(1)
	}
	if traced {
		tr.begin("prof.Finish")
		b.prof = p.Finish()
		tr.end(1)
	}
	tr.begin("urllcsim.Scenario.counters")
	b.counters = counters{
		srs: sc.SRsSent(), grants: sc.GrantsIssued(),
		radioMisses: sc.RadioMisses(), phyLosses: sc.PHYLosses(),
	}
	tr.end(1)
	var kpi *analyze.KPIReport
	var sink countingDiscard
	if w.kpi {
		tr.begin("analyze.ComputeKPI")
		kpi = analyze.ComputeKPI(analyze.FromRecorder(rec), w.name)
		tr.end(1)
		tr.begin("obs.WriteJSONL")
		err = obs.WriteJSONL(&sink, rec)
		tr.end(1)
		if err != nil {
			return b, fmt.Errorf("%s: export: %w", w.name, err)
		}
	}
	t2 := time.Now()
	b.cpu = processCPU() - cpu0
	b.setup = t1.Sub(t0)
	b.window = t2.Sub(t1)

	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		b.mem = memDelta{
			allocs:     m1.Mallocs - m0.Mallocs,
			allocBytes: m1.TotalAlloc - m0.TotalAlloc,
			gcCycles:   m1.NumGC - m0.NumGC,
			gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
		}
		b.gcCPU = gcCPUSeconds() - gc0
		b.poolAllocs = sc.Engine().PoolAllocs()
	}
	tr.end(1)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.heapLive = ms.HeapAlloc
	runtime.KeepAlive(sc)
	runtime.KeepAlive(rec)
	runtime.KeepAlive(kpi)

	b.acct = account(ids, results)
	b.results = results
	b.digest = digest(results, b.counters, kpi, sink.n)
	return b, nil
}

// digest hashes every simulated output of a batch: each packet's fate and
// latency, the scenario counters and, for the KPI workload, the KPI report
// summary and the export size. Equal seeds must give equal digests, traced
// or not.
func digest(results []urllcsim.PacketResult, c counters, kpi *analyze.KPIReport, exportBytes int64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, r := range results {
		put(uint64(r.ID))
		put(uint64(r.Latency))
		put(uint64(r.Attempts))
		flags := uint64(0)
		if r.Uplink {
			flags |= 1
		}
		if r.Delivered {
			flags |= 2
		}
		put(flags)
	}
	put(uint64(c.srs))
	put(uint64(c.grants))
	put(uint64(c.radioMisses))
	put(uint64(c.phyLosses))
	if kpi != nil {
		put(uint64(len(kpi.UEs)))
		for _, d := range kpi.Dirs {
			put(uint64(d.Delivered))
			put(uint64(d.Lost))
			put(math.Float64bits(d.JainThroughput))
			put(math.Float64bits(d.JainLatency))
		}
		put(uint64(exportBytes))
	}
	return h.Sum64()
}
