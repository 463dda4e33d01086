package main

import (
	"math"
	"math/rand/v2"
	"time"

	"urllcsim"
)

// arrival is one generated packet: which logical UE offers it, when (in
// simulated time), how many bytes, and in which direction.
type arrival struct {
	ue    int
	at    time.Duration
	bytes int
	ul    bool
}

// workload is one traffic mix the benchmark drives through the public API.
// The traffic is open loop in simulated time: every arrival is offered
// before the first Run, as the CLIs and cell.Run do.
type workload struct {
	name string
	why  string
	cfg  urllcsim.ScenarioConfig
	// kpi mounts the C2 recorder (spans, per-UE families, slot ledger,
	// deadline audit) and runs the KPI pass and JSONL export after Run.
	kpi bool
	// drainCap is how far past the last arrival the run may go before
	// unresolved packets count as failed operations.
	drainCap time.Duration
	gen      func(rng *rand.Rand) []arrival
}

// testbedArrivals is the §7 testbed traffic: one 32 B UL and one 32 B DL
// packet every 2 ms, each stream at a seeded phase.
func testbedArrivals(rng *rand.Rand) []arrival {
	const (
		period = 2 * time.Millisecond
		cycles = 4000
	)
	ulPhase := time.Duration(rng.Int64N(int64(period)))
	dlPhase := time.Duration(rng.Int64N(int64(period)))
	out := make([]arrival, 0, 2*cycles)
	for c := 0; c < cycles; c++ {
		base := time.Duration(c) * period
		out = append(out,
			arrival{ue: 0, at: base + ulPhase, bytes: 32, ul: true},
			arrival{ue: 0, at: base + dlPhase, bytes: 32, ul: false})
	}
	return out
}

// fleetArrivals returns the many-machine traffic of the ns-3 LENA
// configured-grant Industry 4.0 shape: ues machines on a common period,
// machine i phase-staggered into the i-th of ues equal sub-slots of the
// period at a seeded offset inside it. Each cycle every machine offers one
// UL packet, log-uniform over [32, 1500] B (1500 B is the IP MTU), and
// receives one 32 B DL command at its own seeded phase.
//
// The UL sizes are stratified: each cycle deals the ues quantiles of the
// log-uniform law to the machines in a seeded order. Which machine sends
// what, and when, follows the seed, but every cycle offers the same bytes,
// so the load — and with it the overload backlog — does not swing with it.
func fleetArrivals(ues, cycles int, period time.Duration) func(*rand.Rand) []arrival {
	return func(rng *rand.Rand) []arrival {
		stagger := period / time.Duration(ues)
		ulPhase := make([]time.Duration, ues)
		dlPhase := make([]time.Duration, ues)
		for i := range ulPhase {
			ulPhase[i] = time.Duration(i)*stagger + time.Duration(rng.Int64N(int64(stagger)))
			dlPhase[i] = time.Duration(rng.Int64N(int64(period)))
		}
		lo, hi := math.Log(32), math.Log(1500)
		sizes := make([]int, ues)
		for k := range sizes {
			sizes[k] = int(math.Round(math.Exp(lo + (float64(k)+0.5)/float64(ues)*(hi-lo))))
		}
		out := make([]arrival, 0, 2*ues*cycles)
		for c := 0; c < cycles; c++ {
			base := time.Duration(c) * period
			rng.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
			for i := 0; i < ues; i++ {
				out = append(out, arrival{ue: i, at: base + ulPhase[i], bytes: sizes[i], ul: true})
			}
			for i := 0; i < ues; i++ {
				out = append(out, arrival{ue: i, at: base + dlPhase[i], bytes: 32, ul: false})
			}
		}
		return out
	}
}

// cellConfig is the 500-machine cell of internal/cell: DU pattern at µ1,
// round-robin dynamic grant, ideal-radio defaults.
func cellConfig() urllcsim.ScenarioConfig {
	return urllcsim.ScenarioConfig{
		Pattern:    urllcsim.PatternDU,
		SlotScale:  urllcsim.Slot0p5ms,
		RoundRobin: true,
		UEs:        1,
	}
}

// workloads lists every workload by name, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "testbed-1ue",
		why:  "fixed per-packet cost at the smallest size: PDCP key schedule, Breakdown growth, dispatch, idle scheduler ticks; observability bypassed",
		cfg: urllcsim.ScenarioConfig{
			Pattern:   urllcsim.PatternDDDU,
			SlotScale: urllcsim.Slot0p5ms,
			Radio:     urllcsim.RadioUSB2,
		},
		drainCap: 2 * time.Second,
		gen:      testbedArrivals,
	},
	{
		name:     "cell500-mix",
		why:      "per-UE scheduling and per-byte codec cost: 500 UEs, log-uniform 32-1500 B UL plus 32 B DL, stable load",
		cfg:      cellConfig(),
		drainCap: 2 * time.Second,
		gen:      fleetArrivals(500, 10, 100*time.Millisecond),
	},
	{
		name:     "cell500-kpi",
		why:      "cell500-mix with the C2 recorder, KPI pass and JSONL export, so the obs layer is the only difference",
		cfg:      cellConfig(),
		kpi:      true,
		drainCap: 2 * time.Second,
		gen:      fleetArrivals(500, 10, 100*time.Millisecond),
	},
	{
		name:     "cell500-overload",
		why:      "UL demand above capacity at a 70 ms period, drained to the end: the scheduler's deferred-SR grant-horizon walk",
		cfg:      cellConfig(),
		drainCap: 30 * time.Second,
		gen:      fleetArrivals(500, 6, 70*time.Millisecond),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
