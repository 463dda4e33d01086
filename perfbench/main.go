// Command perfbench is urllcsim's benchmark. It drives one workload through
// the public API — urllcsim.NewScenario, Send{Uplink,Downlink}From, Run, the
// obs recorder, the KPI pass and JSONL export, and prof.Attach — for a fixed
// wall-clock budget, checks every batch's outputs, and prints one JSON result
// line last on stdout.
//
//	perfbench -workload cell500-mix -seed 1 -seconds 10 -trace 0
//
// -trace 0 reports the end-to-end metrics from untraced batches; -trace 1
// reports the per-layer metrics from a separate traced run. See README.md
// for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run (see README.md)")
	seed := flag.Uint64("seed", 1, "seed for arrivals, payload sizes and the scenario")
	seconds := flag.Int("seconds", 10, "wall-clock seconds to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	root := flag.String("root", "..", "repository root, hashed into the fingerprint")
	out := flag.String("out", "", "directory for the span trace and the saved result; empty writes neither")
	cmp := flag.Bool("compare", false, "compare two saved results given as arguments: base head")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			return errors.New("-compare takes two saved result files")
		}
		return compare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	// One single-threaded batch per process; the second core is left to
	// the garbage collector, as on the two-core reference machine.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	fp := newFingerprint(w.name, *seed, *trace == 1, *root)

	in := w.gen(rand.New(rand.NewPCG(*seed, 0x5eed0fa11)))
	budget := time.Duration(*seconds) * time.Second
	start := time.Now()
	steal0, total0 := cpuTicks()
	s := newSession(w, *seed, in, start.Add(min(3*budget, hardStop)))

	var vals map[string]float64
	var defs []metricDef
	var tr *tracer
	if *trace == 0 {
		untraced, err := s.measure(nil, start.Add(budget), 5)
		if err != nil {
			return err
		}
		vals, defs = endToEndValues(untraced, s.setups), endToEnd
	} else {
		untraced, err := s.measure(nil, start.Add(budget*2/5), 3)
		if err != nil {
			return err
		}
		tr = newTracer()
		traced, err := s.measure(tr, start.Add(budget*17/20), 3)
		if err != nil {
			return err
		}
		probes := runProbes(probeSizes(in, 512), max(budget/10, 200*time.Millisecond), tr)
		vals, defs = layerValues(s.sim, untraced, traced, tr, probes), perLayer
	}

	if steal1, total1 := cpuTicks(); total1 > total0 {
		fp.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	fp.Discarded = s.stolen
	if s.stolen > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: discarded %d measurements taken while the host stole over %.0f%% of CPU time\n", s.stolen, 100*stealMax)
	}
	res := s.result(defs, vals)
	if *out != "" {
		if err := save(*out, fp, res, tr); err != nil {
			return err
		}
	}
	fpLine, err := json.Marshal(map[string]fingerprint{"fingerprint": fp})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(fpLine))
	fmt.Println(string(resLine))
	return nil
}

// hardStop caps how long a run may look for measurements the host did not
// steal from before it gives up as unusable.
const hardStop = 120 * time.Second

// session runs the batches of one invocation and keeps the correctness
// books: every batch's accounting, and its digest against the first's.
type session struct {
	w     workload
	seed  uint64
	in    []arrival
	ticks func() (steal, total uint64) // host CPU ticks, cpuTicks outside tests
	stop  time.Time                    // past it, a run still short of clean measurements fails

	ref       uint64             // the warm-up batch's digest, which every later batch must match
	sim       map[string]float64 // the warm-up batch's simulated outputs
	batches   int
	stolen    int // measurements discarded for host steal: batches and set-up sample blocks
	attempted int
	failed    int       // operations failed by the batches' own accounting
	broken    []string  // failed checks
	setups    []float64 // seconds of every set-up kept, clean batches' included
}

func newSession(w workload, seed uint64, in []arrival, stop time.Time) *session {
	return &session{w: w, seed: seed, in: in, ticks: cpuTicks, stop: stop}
}

// setupSamples is how many set-ups a session times on their own, besides
// the one in every batch: a batch of the overload workload takes over a
// second, and setup_s needs more samples than a run has batches.
const setupSamples = 40

// stealMax is the share of host CPU time the hypervisor may steal while a
// batch or a block of set-up samples is measured. Past it the measurement
// is discarded and taken again: stolen time inflates wall time, and on the
// shared two-core reference machine it has cut throughput by 40 %.
const stealMax = 0.05

// clean reports whether the host stole at most stealMax of its CPU time
// since the ticks read before; an unreadable /proc/stat counts as clean.
func (s *session) clean(steal0, total0 uint64) bool {
	steal1, total1 := s.ticks()
	if total1 <= total0 {
		return true
	}
	if float64(steal1-steal0) <= stealMax*float64(total1-total0) {
		return true
	}
	s.stolen++
	return false
}

// unusable is the error of a run that reached its hard stop without the
// clean measurements it needs.
func (s *session) unusable(what string) error {
	return fmt.Errorf("host CPU steal stayed above %.0f%% until the hard stop (%d measurements discarded) while taking %s; the run is unusable",
		100*stealMax, s.stolen, what)
}

// measure runs one untimed warm-up batch and the set-up samples when the
// session has none yet, then batches until the deadline has passed and at
// least minBatches clean ones ran. A batch the host stole from is checked
// but not kept. The heap is collected before each batch and each set-up,
// so every one starts alike.
func (s *session) measure(tr *tracer, deadline time.Time, minBatches int) ([]batch, error) {
	if s.batches == 0 {
		runtime.GC()
		if _, err := s.one(nil); err != nil {
			return nil, err
		}
		if err := s.sampleSetUps(); err != nil {
			return nil, err
		}
	}
	var bs []batch
	for len(bs) < minBatches || time.Now().Before(deadline) {
		if time.Now().After(s.stop) {
			return nil, s.unusable(fmt.Sprintf("batch %d of %d", len(bs)+1, minBatches))
		}
		runtime.GC()
		steal0, total0 := s.ticks()
		b, err := s.one(tr)
		if err != nil {
			return nil, err
		}
		if !s.clean(steal0, total0) {
			continue
		}
		if tr == nil {
			s.setups = append(s.setups, b.setup.Seconds())
		}
		bs = append(bs, b)
	}
	return bs, nil
}

// sampleSetUps times setupSamples set-ups on their own, as one block that
// is taken again while the host steals from it.
func (s *session) sampleSetUps() error {
	for !time.Now().After(s.stop) {
		steal0, total0 := s.ticks()
		block := make([]float64, 0, setupSamples)
		for i := 0; i < setupSamples; i++ {
			runtime.GC()
			t0 := time.Now()
			sc, rec, _, err := setUp(s.w, s.seed, s.in, nil)
			if err != nil {
				return err
			}
			block = append(block, time.Since(t0).Seconds())
			runtime.KeepAlive(sc)
			runtime.KeepAlive(rec)
		}
		if s.clean(steal0, total0) {
			s.setups = append(s.setups, block...)
			return nil
		}
	}
	return s.unusable("the set-up samples")
}

// one runs and checks a single batch. The warm-up batch's digest is the
// reference and its simulated outputs are reported; no batch's packet
// results outlive it, so none inflates a later batch's heap_live.
func (s *session) one(tr *tracer) (batch, error) {
	b, err := runBatch(s.w, s.seed, s.in, tr)
	if err != nil {
		return b, err
	}
	if s.batches == 0 {
		s.ref = b.digest
		s.sim = simOutputs(b)
	}
	b.results = nil
	s.batches++
	s.attempted += b.acct.offered
	s.failed += b.acct.failed()
	if b.acct.violation != "" {
		s.broken = append(s.broken, fmt.Sprintf("batch %d: %s", s.batches, b.acct.violation))
	}
	if b.digest != s.ref {
		kind := "untraced"
		if tr != nil {
			kind = "traced"
		}
		s.broken = append(s.broken, fmt.Sprintf("batch %d (%s): digest %016x differs from first batch %016x at the same seed",
			s.batches, kind, b.digest, s.ref))
	}
	return b, nil
}

// result assembles the last output line. A failed check counts every
// operation of the run as failed.
func (s *session) result(defs []metricDef, vals map[string]float64) result {
	r := result{Correct: len(s.broken) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: fill(defs, vals)}
	for _, msg := range s.broken {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	if !r.Correct {
		r.Failed = r.Attempted
	}
	if s.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d packets failed: unresolved at the drain cap\n", s.failed, s.attempted)
	}
	return r
}

// endToEndValues reduces untraced batches to the end-to-end metrics, each
// a median over batches; setup_s is the median of every set-up timed.
func endToEndValues(bs []batch, setups []float64) map[string]float64 {
	var win, cpu, heap []float64
	for _, b := range bs {
		off := float64(b.acct.offered)
		win = append(win, off/b.window.Seconds())
		cpu = append(cpu, b.cpu.Seconds()*1e6/off)
		heap = append(heap, float64(b.heapLive)/1e6)
	}
	return map[string]float64{
		"pkts_per_s":     median(win),
		"cpu_us_per_pkt": median(cpu),
		"heap_live_mb":   median(heap),
		"setup_s":        median(setups),
	}
}

// save writes the result with its fingerprint for -compare and, for a
// traced run, the span trace.
func save(dir string, fp fingerprint, res result, tr *tracer) error {
	trace := 0
	if fp.Trace {
		trace = 1
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", fp.Workload, fp.Seed, trace)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(savedResult{Fingerprint: fp, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".result.json"), b, 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, base+".spans.jsonl"))
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f, fp); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
