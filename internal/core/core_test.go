package core

import (
	"strings"
	"testing"

	"urllcsim/internal/nr"
	"urllcsim/internal/sim"
)

func TestBreakdownAccounting(t *testing.T) {
	var b Breakdown
	b.Add("wait for UL slot", Protocol, 0, 100*sim.Microsecond)
	b.Add("PHY decode", Processing, sim.Time(100_000), 40*sim.Microsecond)
	b.Add("bus transfer", Radio, sim.Time(140_000), 300*sim.Microsecond)
	b.Add("SCHE wait", Protocol, sim.Time(440_000), 150*sim.Microsecond)

	if got := b.Total(); got != 590*sim.Microsecond {
		t.Fatalf("Total = %v", got)
	}
	by := b.BySource()
	if by[Protocol] != 250*sim.Microsecond || by[Processing] != 40*sim.Microsecond || by[Radio] != 300*sim.Microsecond {
		t.Fatalf("BySource = %v", by)
	}
	if b.Dominant() != Radio {
		t.Fatalf("Dominant = %v, want radio", b.Dominant())
	}
	s := b.String()
	for _, want := range []string{"wait for UL slot", "protocol", "radio", "TOTAL"} {
		if !strings.Contains(s, want) {
			t.Fatalf("breakdown table missing %q:\n%s", want, s)
		}
	}
}

func TestSourceStrings(t *testing.T) {
	if Protocol.String() != "protocol" || Processing.String() != "processing" || Radio.String() != "radio" {
		t.Fatal("source names wrong")
	}
	if GrantBasedUL.String() != "grant-based UL" || GrantFreeUL.String() != "grant-free UL" || Downlink.String() != "DL" {
		t.Fatal("mode names wrong")
	}
}

// The headline reproduction: the engine must agree with the paper's Table 1
// on every one of the 15 cells.
func TestTable1MatchesPaper(t *testing.T) {
	m, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if diffs := m.MatchesPaper(); len(diffs) != 0 {
		t.Fatalf("Table 1 mismatches:\n%s\n%s", strings.Join(diffs, "\n"), m)
	}
}

func TestDMIsOnlyFeasibleCommonConfig(t *testing.T) {
	// §5: "only one configuration, DM, satisfies the latency requirements
	// of URLLC on both downlink and uplink for the grant-free scenario".
	m, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []string{"DU", "DM", "MU"} {
		gf, _ := m.Verdict(cfg, GrantFreeUL)
		dl, _ := m.Verdict(cfg, Downlink)
		both := gf.Meets && dl.Meets
		if cfg == "DM" && !both {
			t.Fatalf("DM must pass GF+DL: gf=%v dl=%v", gf.Meets, dl.Meets)
		}
		if cfg != "DM" && both {
			t.Fatalf("%s must not pass both GF and DL", cfg)
		}
	}
}

func TestGrantBasedAlwaysFailsInTDDCommonConfigs(t *testing.T) {
	m, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []string{"DU", "DM", "MU"} {
		if v, _ := m.Verdict(cfg, GrantBasedUL); v.Meets {
			t.Fatalf("%s grant-based UL must fail, worst %.3fms", cfg, float64(v.Worst)/1e6)
		}
	}
}

func TestWorstCaseMagnitudes(t *testing.T) {
	as := DefaultAssumptions()
	dm := ConfigDM(nr.Mu2, as)

	gf, err := dm.WorstCase(GrantFreeUL)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4: the grant-free UL worst case is (close to) one full TDD
	// period of 0.5 ms: the UE just missed the UL portion and waits for
	// the next one.
	if gf.Latency() < 400*sim.Microsecond || gf.Latency() > 500*sim.Microsecond {
		t.Fatalf("DM grant-free worst = %v, want ≈0.46ms", gf.Latency())
	}
	dl, err := dm.WorstCase(Downlink)
	if err != nil {
		t.Fatal(err)
	}
	if dl.Latency() > 500*sim.Microsecond {
		t.Fatalf("DM DL worst = %v exceeds deadline", dl.Latency())
	}
	gb, err := dm.WorstCase(GrantBasedUL)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4: grant-based adds the SR→grant handshake — roughly one extra
	// TDD period beyond grant-free.
	if gb.Latency() < gf.Latency()+300*sim.Microsecond {
		t.Fatalf("grant-based worst %v not ≫ grant-free %v", gb.Latency(), gf.Latency())
	}
	// The journey must be internally consistent.
	if !(gb.Arrival <= gb.SRStart && gb.SRStart < gb.GrantEnd && gb.GrantEnd < gb.TxStart && gb.TxStart < gb.Complete) {
		t.Fatalf("grant-based journey out of order: %+v", gb)
	}
}

// The analytic worst-case walk allocates nothing: Table 1 and every sweep
// cell run it many times per configuration.
func TestWorstCaseZeroAlloc(t *testing.T) {
	cfg := ConfigDM(nr.Mu2, DefaultAssumptions())
	walk := func() {
		if _, err := cfg.WorstCase(GrantBasedUL); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(20, walk); allocs != 0 {
		t.Fatalf("grant-based worst-case walk allocates %.1f times, want 0", allocs)
	}
}

func TestWalkDeterministicAndCausal(t *testing.T) {
	cfg := ConfigDM(nr.Mu2, DefaultAssumptions())
	for _, mode := range Modes {
		for _, arr := range []sim.Time{0, 1, 100_000, 399_999, 499_999} {
			j1 := cfg.Walk(mode, arr)
			j2 := cfg.Walk(mode, arr)
			if j1.Err != nil {
				t.Fatalf("%v walk: %v", mode, j1.Err)
			}
			if j1 != j2 {
				t.Fatalf("walk not deterministic for %v@%v", mode, arr)
			}
			if j1.Complete <= arr {
				t.Fatalf("%v completion %v not after arrival %v", mode, j1.Complete, arr)
			}
		}
	}
}

func TestWalkPeriodicity(t *testing.T) {
	// Shifting the arrival by one period shifts the journey by one period.
	cfg := ConfigDM(nr.Mu2, DefaultAssumptions())
	p := sim.Time(cfg.DL.Period())
	for _, mode := range Modes {
		a := cfg.Walk(mode, 123_456)
		b := cfg.Walk(mode, 123_456+p)
		if a.Latency() != b.Latency() {
			t.Fatalf("%v latency not periodic: %v vs %v", mode, a.Latency(), b.Latency())
		}
	}
}

func TestProcessingShiftsLatency(t *testing.T) {
	as := DefaultAssumptions()
	base := ConfigDM(nr.Mu2, as)
	as2 := as
	as2.GNBProc = 50 * sim.Microsecond
	slow := ConfigDM(nr.Mu2, as2)
	j1, _ := base.WorstCase(Downlink)
	j2, _ := slow.WorstCase(Downlink)
	if j2.Latency() <= j1.Latency() {
		t.Fatalf("adding gNB processing did not increase DL worst case: %v vs %v", j2.Latency(), j1.Latency())
	}
}

func TestRadioLatencyAddsPerLeg(t *testing.T) {
	as := DefaultAssumptions()
	as.RadioLatency = 10 * sim.Microsecond
	cfg := ConfigFDD(nr.Mu2, as)
	base := ConfigFDD(nr.Mu2, DefaultAssumptions())
	jGF, _ := cfg.WorstCase(GrantFreeUL)
	bGF, _ := base.WorstCase(GrantFreeUL)
	// Grant-free has one leg.
	if jGF.Latency()-bGF.Latency() != 10*sim.Microsecond {
		t.Fatalf("GF radio delta = %v, want 10µs", jGF.Latency()-bGF.Latency())
	}
}

func TestMarginSlotsDelaysTransmission(t *testing.T) {
	as := DefaultAssumptions()
	as.MarginSlots = 1
	with := ConfigDM(nr.Mu2, as)
	without := ConfigDM(nr.Mu2, DefaultAssumptions())
	j1, _ := without.WorstCase(Downlink)
	j2, _ := with.WorstCase(Downlink)
	if j2.Latency() <= j1.Latency() {
		t.Fatalf("margin slot did not delay DL: %v vs %v", j2.Latency(), j1.Latency())
	}
}

func TestSixGTargetInfeasibleAtMu2(t *testing.T) {
	// §1/§9: 6G aims at 0.1 ms one-way. With 0.25 ms slots even the best
	// configuration cannot meet it — slot-based FR1 cannot deliver 6G URLLC.
	m, err := Evaluate(Table1Configs(nr.Mu2, DefaultAssumptions()), SixGDeadline)
	if err != nil {
		t.Fatal(err)
	}
	// Every TDD Common Configuration fails all modes: one 0.25 ms slot of
	// waiting already blows the 0.1 ms budget.
	for _, cfg := range []string{"DU", "DM", "MU"} {
		for _, mode := range Modes {
			if v, _ := m.Verdict(cfg, mode); v.Meets {
				t.Fatalf("%s/%v meets the 6G target at µ2 — implausible", cfg, mode)
			}
		}
	}
	// Scheduled modes fail even full-duplex FDD: the once-per-slot
	// scheduler alone costs a slot (0.25 ms > 0.1 ms).
	for _, mode := range []AccessMode{GrantBasedUL, Downlink} {
		if v, _ := m.Verdict("FDD", mode); v.Meets {
			t.Fatalf("FDD/%v meets the 6G target at µ2 — scheduling costs a slot", mode)
		}
	}
	// Only unscheduled grant-free access squeaks under 0.1 ms at the
	// protocol level — exactly why §9 calls grant-free "necessary in
	// certain cases".
	if v, _ := m.Verdict("FDD", GrantFreeUL); !v.Meets {
		t.Fatalf("FDD grant-free protocol-only worst %v should fit 0.1ms", v.Worst)
	}
}

func TestDDDUWorstCasesMatchDemonstrationShape(t *testing.T) {
	// §7 runs DDDU at µ1 and finds UL ≫ DL, with grant-based UL missing
	// whole TDD patterns. Protocol-only worst cases must already show the
	// ordering DL < GF UL < GB UL.
	cfg := ConfigDDDU(nr.Mu1, DefaultAssumptions())
	dl, err := cfg.WorstCase(Downlink)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := cfg.WorstCase(GrantFreeUL)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := cfg.WorstCase(GrantBasedUL)
	if err != nil {
		t.Fatal(err)
	}
	if !(dl.Latency() < gf.Latency() && gf.Latency() < gb.Latency()) {
		t.Fatalf("DDDU ordering violated: DL=%v GF=%v GB=%v", dl.Latency(), gf.Latency(), gb.Latency())
	}
	// Grant-based loses about one TDD period (2 ms at µ1) to the handshake.
	delta := gb.Latency() - gf.Latency()
	if delta < 1500*sim.Microsecond || delta > 2700*sim.Microsecond {
		t.Fatalf("SR/grant handshake cost = %v, want ≈1 TDD period (2ms)", delta)
	}
}

func TestMatrixString(t *testing.T) {
	m, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	s := m.String()
	for _, want := range []string{"DM", "Mini-slot", "FDD", "grant-free UL", "✓", "✗"} {
		if !strings.Contains(s, want) {
			t.Fatalf("matrix table missing %q:\n%s", want, s)
		}
	}
	if _, ok := m.Verdict("nope", Downlink); ok {
		t.Fatal("bogus config found")
	}
}

func TestEvaluateDeadlineSensitivity(t *testing.T) {
	// With a sufficiently generous deadline everything passes.
	m, err := Evaluate(Table1Configs(nr.Mu2, DefaultAssumptions()), 10*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for cfg, row := range m.Cells {
		for mode, v := range row {
			if !v.Meets {
				t.Fatalf("%s/%v fails a 10ms deadline (worst %v)", cfg, mode, v.Worst)
			}
		}
	}
}

func TestHigherNumerologyTightensWorstCase(t *testing.T) {
	// §2: "higher numerologies are key enablers for low-latency". The same
	// DM shape at µ1 must be strictly worse than at µ2.
	mu1, err := ConfigDM(nr.Mu1, DefaultAssumptions()).WorstCase(GrantFreeUL)
	if err != nil {
		t.Fatal(err)
	}
	mu2, err := ConfigDM(nr.Mu2, DefaultAssumptions()).WorstCase(GrantFreeUL)
	if err != nil {
		t.Fatal(err)
	}
	if mu1.Latency() <= mu2.Latency() {
		t.Fatalf("µ1 (%v) not worse than µ2 (%v)", mu1.Latency(), mu2.Latency())
	}
}

func TestWalkUnknownMode(t *testing.T) {
	cfg := ConfigFDD(nr.Mu2, DefaultAssumptions())
	if j := cfg.Walk(AccessMode(99), 0); j.Err == nil {
		t.Fatal("unknown mode accepted")
	}
}
