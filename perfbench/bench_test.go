package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"urllcsim"
)

// TestDLWedgeCountsAsFailed offers the known DL wedge — one 5000 B DL
// packet, which no DL transport block can carry, ahead of ten 32 B DL
// packets — and requires the benchmark's accounting to report the stuck
// packets as failed operations rather than drop them silently.
func TestDLWedgeCountsAsFailed(t *testing.T) {
	w, _ := findWorkload("testbed-1ue")
	w.gen = func(*rand.Rand) []arrival {
		in := []arrival{{at: 0, bytes: 5000}}
		for i := 1; i <= 10; i++ {
			in = append(in, arrival{at: time.Duration(i) * time.Millisecond, bytes: 32})
		}
		return in
	}
	s := newSession(w, 1, w.gen(nil), time.Now().Add(time.Minute))
	bs, err := s.measure(nil, time.Now(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res := s.result(endToEnd, endToEndValues(bs, s.setups))
	if !res.Correct {
		t.Fatalf("accounting invariant broke on the wedge: %+v", res)
	}
	if res.Failed < 10*s.batches {
		t.Fatalf("wedge: %d of %d operations failed over %d batches; want the ten packets behind the 5000 B one failed in every batch",
			res.Failed, res.Attempted, s.batches)
	}

	// The same through the facade's SendDownlink, checked by account alone.
	sc, err := urllcsim.NewScenario(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{sc.SendDownlink(0, 5000)}
	for i := 1; i <= 10; i++ {
		ids = append(ids, sc.SendDownlink(time.Duration(i)*time.Millisecond, 32))
	}
	a := account(ids, sc.Run(w.drainCap))
	if a.violation != "" || a.failed() < 10 {
		t.Fatalf("wedge via SendDownlink: %+v, want ≥10 failed and no violation", a)
	}
}

// TestStolenMeasurementsAreRetaken feeds the session host CPU ticks with
// heavy steal: stolen set-up blocks and batches must be taken again and
// kept out of the figures, and a host that never stops stealing must fail
// the run at its hard stop.
func TestStolenMeasurementsAreRetaken(t *testing.T) {
	w, _ := findWorkload("testbed-1ue")
	in := []arrival{{at: 0, bytes: 32, ul: true}, {at: time.Millisecond, bytes: 32}}
	// Every second read closes a measurement; stolen[i] says whether the
	// host stole half its CPU time during the i-th, and later ones are
	// stolen when forever is set.
	stealing := func(forever bool, stolen ...bool) func() (uint64, uint64) {
		var reads, steal, total uint64
		return func() (uint64, uint64) {
			reads++
			total += 100
			if i := int(reads/2) - 1; reads%2 == 0 && (i >= len(stolen) && forever || i < len(stolen) && stolen[i]) {
				steal += 50
			}
			return steal, total
		}
	}

	s := newSession(w, 1, in, time.Now().Add(time.Minute))
	s.ticks = stealing(false, true, false, true, true) // a set-up block, then two batches
	bs, err := s.measure(nil, time.Now(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 || s.stolen != 3 || s.batches != 5 || len(s.setups) != setupSamples+2 {
		t.Fatalf("kept %d batches, %d set-ups, discarded %d, ran %d batches; want 2, %d, 3, 5",
			len(bs), len(s.setups), s.stolen, s.batches, setupSamples+2)
	}

	s = newSession(w, 1, in, time.Now().Add(100*time.Millisecond))
	s.ticks = stealing(true)
	if _, err := s.measure(nil, time.Now(), 2); err == nil || !strings.Contains(err.Error(), "unusable") {
		t.Fatalf("host stolen from throughout: err %v, want the run refused as unusable", err)
	}
}

func TestAccountingCatchesBrokenBooks(t *testing.T) {
	ids := []int{0, 1, 2}
	ok := account(ids, []urllcsim.PacketResult{{ID: 0, Delivered: true}, {ID: 2}})
	if ok.violation != "" || ok.delivered != 1 || ok.lost != 1 || ok.unresolved != 1 || ok.failed() != 1 {
		t.Fatalf("clean books: %+v", ok)
	}
	for name, rs := range map[string][]urllcsim.PacketResult{
		"twice":   {{ID: 1, Delivered: true}, {ID: 1}},
		"unknown": {{ID: 7, Delivered: true}},
	} {
		a := account(ids, rs)
		if a.violation == "" || a.failed() != len(ids) {
			t.Errorf("%s: %+v, want a violation failing all %d operations", name, a, len(ids))
		}
	}
}

// TestDigestDeterministic runs every workload twice untraced and once
// traced at one seed: all three must give the same simulated results.
func TestDigestDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := w.gen(rand.New(rand.NewPCG(3, 0x5eed0fa11)))
			s := newSession(w, 3, in, time.Now().Add(time.Minute))
			if _, err := s.measure(nil, time.Now(), 1); err != nil {
				t.Fatal(err)
			}
			if _, err := s.measure(newTracer(), time.Now(), 1); err != nil {
				t.Fatal(err)
			}
			if len(s.broken) > 0 || s.failed > 0 {
				t.Fatalf("checks: %v, failed %d", s.broken, s.failed)
			}
		})
	}
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		a := w.gen(rand.New(rand.NewPCG(5, 0x5eed0fa11)))
		b := w.gen(rand.New(rand.NewPCG(5, 0x5eed0fa11)))
		c := w.gen(rand.New(rand.NewPCG(6, 0x5eed0fa11)))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: inputs ignore the seed", w.name)
		}
		for _, x := range a {
			if x.bytes < 32 || x.bytes > 1500 {
				t.Fatalf("%s: payload %d B outside [32, 1500]", w.name, x.bytes)
			}
		}
	}
}

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{10000, 99.9, 9990}, // exactly ten beyond
		{8000, 99, 7920},    // p99.9 would leave eight
		{100, 90, 90},
		{19, 0, 0}, // even the median leaves nine
	} {
		pct, val := tailOf(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: tail p%v=%v, want p%v=%v", c.n, pct, val, c.pct, c.val)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the names,
// units, directions and bounds the code reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, js []def, code []metricDef, bounded bool) {
		if len(js) != len(code) {
			t.Errorf("%s: json has %d metrics, code %d", kind, len(js), len(code))
			return
		}
		for i, c := range code {
			j := js[i]
			if j.Name != c.name || j.Unit != c.unit || j.Better != c.better ||
				(j.Bound != nil) != bounded || (bounded && *j.Bound != c.bound) {
				t.Errorf("%s[%d]: json %+v, code %+v", kind, i, j, c)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

func TestCompareRefusesAcrossMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		fp := fingerprint{Nproc: nproc, GOMAXPROCS: 2, CPUModel: "x", GoVersion: "go1", Workload: "w"}
		res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"pkts_per_s": {Value: 1, Unit: "1/s"}}}
		if err := save(dir, fp, res, nil); err != nil {
			t.Fatal(err)
		}
		p := dir + "/" + name + ".json"
		if err := os.Rename(dir+"/w-seed0-trace0.result.json", p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := write("a", 2), write("b", 4)
	var out strings.Builder
	if err := compare(&out, a, a); err != nil || !strings.Contains(out.String(), "pkts_per_s") {
		t.Fatalf("same machine: err %v, output %q", err, out.String())
	}
	if err := compare(&out, a, b); err == nil {
		t.Fatal("compare across machines was not refused")
	}
}
