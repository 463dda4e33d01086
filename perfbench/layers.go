package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"urllcsim/internal/crypto5g"
	"urllcsim/internal/pdu"
	"urllcsim/internal/stack"
)

// probeStat is one probed function's measured cost per call.
type probeStat struct{ ns, allocs float64 }

// probeSizes picks up to n payload sizes from the workload's inputs at an
// even stride, so the probes see the generated size mix.
func probeSizes(in []arrival, n int) []int {
	step := max(1, len(in)/n)
	var out []int
	for i := 0; i < len(in); i += step {
		out = append(out, max(in[i].bytes, 13)) // the facade's minimum packet
	}
	return out
}

// timeCalls runs f over every index of a sample repeatedly until budget is
// spent and returns ns and heap allocations per call. prep, when set, runs
// untimed before each pass (fresh entity state).
func timeCalls(n int, budget time.Duration, prep func(), f func(i int)) probeStat {
	var m0, m1 runtime.MemStats
	var elapsed time.Duration
	calls := 0
	var allocs uint64
	for elapsed < budget || calls == 0 {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&m1)
		allocs += m1.Mallocs - m0.Mallocs
		calls += n
	}
	return probeStat{ns: float64(elapsed.Nanoseconds()) / float64(calls), allocs: float64(allocs) / float64(calls)}
}

// runProbes calls the public stack and crypto5g functions on the given
// payload sizes, in the order and with the arguments the node's data plane
// uses, and returns each function's cost per call.
func runProbes(sizes []int, budget time.Duration, tr *tracer) map[string]probeStat {
	key := make([]byte, 16)
	ikey := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
		ikey[i] = byte(0xA5 + i)
	}
	newPDCP := func(dir crypto5g.Direction) *stack.PDCP {
		return &stack.PDCP{SNBits: pdu.PDCPSN12, Bearer: 1, Direction: dir, CipherKey: key, IntegKey: ikey}
	}
	n := len(sizes)
	app := make([][]byte, n)
	sdapPDU := make([][]byte, n)
	pdcpPDU := make([][]byte, n)
	rlcPDU := make([][]byte, n)
	tbs := make([][]byte, n)
	sdap := &stack.SDAP{QFI: 1}
	tx := newPDCP(crypto5g.Uplink)
	rlc := stack.NewRLC()
	mac := &stack.MAC{LCID: 4}
	for i, s := range sizes {
		app[i] = make([]byte, s)
		sdapPDU[i] = sdap.Encap(app[i])
		p, err := tx.Protect(sdapPDU[i])
		if err != nil {
			panic(err) // fixed keys and sizes within the MTU: a codec bug
		}
		pdcpPDU[i] = p
		segs, err := rlc.Segment(p, 1<<14)
		if err != nil || len(segs) != 1 {
			panic("perfbench: probe SDU did not fit one RLC PDU")
		}
		rlcPDU[i] = segs[0]
		tb, err := mac.BuildTB(segs, len(segs[0])+3)
		if err != nil {
			panic(err)
		}
		tbs[i] = tb
	}
	per := budget / time.Duration(len(stackProbes)+len(cryptoProbes))
	out := map[string]probeStat{}
	run := func(name string, prep func(), f func(i int)) {
		tr.begin("probe." + name)
		out[name] = timeCalls(n, per, prep, f)
		tr.end(1)
	}
	var sink int
	run("sdap_encap", nil, func(i int) { sink += len(sdap.Encap(app[i])) })
	run("pdcp_protect", nil, func(i int) {
		b, _ := tx.Protect(sdapPDU[i])
		sink += len(b)
	})
	run("rlc_segment", nil, func(i int) {
		b, _ := rlc.Segment(pdcpPDU[i], 1<<14)
		sink += len(b)
	})
	run("mac_build_tb", nil, func(i int) {
		b, _ := mac.BuildTB([][]byte{rlcPDU[i]}, len(rlcPDU[i])+3)
		sink += len(b)
	})
	run("mac_parse_tb", nil, func(i int) {
		b, _ := mac.ParseTB(tbs[i])
		sink += len(b)
	})
	rlcRx := stack.NewRLC()
	run("rlc_receive", nil, func(i int) {
		b, _ := rlcRx.Receive(rlcPDU[i])
		sink += len(b)
	})
	// Unprotect needs the PDUs of a fresh TX entity, in COUNT order.
	var rx *stack.PDCP
	prot := make([][]byte, n)
	run("pdcp_unprotect", func() {
		t := newPDCP(crypto5g.Uplink)
		rx = newPDCP(crypto5g.Uplink)
		for i := range prot {
			prot[i], _ = t.Protect(sdapPDU[i])
		}
	}, func(i int) {
		b, err := rx.Unprotect(prot[i])
		if err != nil {
			panic(err)
		}
		sink += len(b)
	})
	sdapRx := &stack.SDAP{QFI: 1}
	run("sdap_decap", nil, func(i int) {
		b, _ := sdapRx.Decap(sdapPDU[i])
		sink += len(b)
	})
	run("nea2", nil, func(i int) {
		b, _ := crypto5g.NEA2(key, uint32(i), 1, crypto5g.Uplink, sdapPDU[i])
		sink += len(b)
	})
	run("nia2", nil, func(i int) {
		m, _ := crypto5g.NIA2(ikey, uint32(i), 1, crypto5g.Uplink, sdapPDU[i])
		sink += int(m[0])
	})
	runtime.KeepAlive(sink)
	return out
}

// eventTotals sums the profiler's per-event-type counts and wall time over
// the traced batches.
type eventTotals struct {
	count      map[string]float64
	wallNs     map[string]float64
	events     float64
	attributed float64
}

func sumEvents(bs []batch) eventTotals {
	t := eventTotals{count: map[string]float64{}, wallNs: map[string]float64{}}
	for _, b := range bs {
		for _, e := range b.prof.Types {
			t.count[e.Key] += float64(e.Count)
			t.wallNs[e.Key] += float64(e.WallNs)
		}
		t.events += float64(b.prof.Events)
		t.attributed += float64(b.prof.AttributedNs)
	}
	return t
}

// explainedShare multiplies each probed function's cost per call by its
// calls, derived from the profiler's event counts, and sets the sum against
// the measured wall of the encode (ul.grant, dl.onair) and decode
// (ul.deliver, dl.ue.up) events. Each UL grant encodes one SDU into one TB;
// each DL enqueue is one SDU, and DL SDUs share the dl.onair TBs evenly.
// The remainder — PHY, scheduling glue, obs calls, GC — is the residual.
func explainedShare(ev eventTotals, probes map[string]probeStat) float64 {
	c := ev.count
	dlPerTB := ratio(c["dl.enqueue"], c["dl.onair"])
	sduEnc := c["ul.grant"] + c["dl.enqueue"]
	tbBuild := c["ul.grant"] + c["dl.onair"]
	tbParse := c["ul.deliver"] + c["dl.ue.up"]
	sduDec := c["ul.deliver"] + dlPerTB*c["dl.ue.up"]
	explained := sduEnc*(probes["sdap_encap"].ns+probes["pdcp_protect"].ns+probes["rlc_segment"].ns) +
		tbBuild*probes["mac_build_tb"].ns +
		tbParse*probes["mac_parse_tb"].ns +
		sduDec*(probes["rlc_receive"].ns+probes["pdcp_unprotect"].ns+probes["sdap_decap"].ns)
	w := ev.wallNs
	measured := w["ul.grant"] + w["dl.onair"] + w["ul.deliver"] + w["dl.ue.up"]
	return ratio(explained, measured)
}

// tailPercentiles is the ladder sim_tail_us climbs: the highest rung with at
// least ten samples beyond it is reported.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// simOutputs are the simulated results of one batch: a change meant only
// for speed must leave every one of them identical.
func simOutputs(b batch) map[string]float64 {
	vals := map[string]float64{}
	var lat []float64
	met := 0
	for _, r := range b.results {
		if r.Delivered {
			lat = append(lat, float64(r.Latency.Nanoseconds())/1e3)
			if r.Latency <= deadline {
				met++
			}
		}
	}
	sort.Float64s(lat)
	pct, tail := tailOf(lat)
	vals["urllcsim.sim_p50_us"] = quantile(lat, 50)
	vals["urllcsim.sim_tail_us"] = tail
	vals["urllcsim.sim_tail_pct"] = pct
	vals["urllcsim.sim_tail_n"] = float64(len(lat))
	off := float64(b.acct.offered)
	vals["urllcsim.delivered_ratio"] = ratio(float64(b.acct.delivered), off)
	vals["urllcsim.deadline_met_ratio"] = ratio(float64(met), off)
	vals["urllcsim.srs_sent"] = float64(b.counters.srs)
	vals["urllcsim.grants_issued"] = float64(b.counters.grants)
	vals["urllcsim.radio_misses"] = float64(b.counters.radioMisses)
	vals["urllcsim.phy_losses"] = float64(b.counters.phyLosses)
	return vals
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps products like 10000·0.999 from rounding up a rank.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(float64(n)*p/100-1e-9)), 1), n)
}

// quantile is the nearest-rank p-th percentile of sorted samples.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// tailOf returns the highest ladder percentile that leaves at least ten of
// the sorted samples beyond it, and its value; 0, 0 below ten samples.
func tailOf(sorted []float64) (pct, value float64) {
	for _, p := range tailPercentiles {
		if len(sorted)-rank(len(sorted), p) >= 10 {
			pct = p
		}
	}
	if pct == 0 {
		return 0, 0
	}
	return pct, quantile(sorted, pct)
}

// layerValues computes every per-layer metric of one traced run from the
// warm-up batch's simulated outputs, the untraced and traced batches' host
// costs, the tracer's spans and the probes.
func layerValues(sim map[string]float64, untraced, traced []batch, tr *tracer, probes map[string]probeStat) map[string]float64 {
	vals := map[string]float64{}
	var offered float64
	for _, b := range traced {
		offered += float64(b.acct.offered)
	}
	ev := sumEvents(traced)
	vals["sched.tick.ns"] = ratio(ev.wallNs["gnb.tick"], ev.count["gnb.tick"])
	vals["sched.tick.share"] = ratio(ev.wallNs["gnb.tick"], ev.attributed)
	vals["sched.ticks_per_pkt"] = ratio(ev.count["gnb.tick"], offered)
	for _, e := range nodeEvents {
		vals["node."+e+".ns"] = ratio(ev.wallNs[e], ev.count[e])
		vals["node."+e+".share"] = ratio(ev.wallNs[e], ev.attributed)
	}
	for _, p := range stackProbes {
		vals["stack."+p+".ns"] = probes[p].ns
		vals["stack."+p+".allocs"] = probes[p].allocs
	}
	for _, p := range cryptoProbes {
		vals["crypto5g."+p+".ns"] = probes[p].ns
		vals["crypto5g."+p+".allocs"] = probes[p].allocs
	}
	vals["stack.explained_share"] = explainedShare(ev, probes)

	var allocs, bytes, gcs, pauseNs, gcCPU, cpu, records, retained, taxNs float64
	var windows []float64
	var maxDepth, pool float64
	catNs := map[string]float64{}
	catRecs := map[string]float64{}
	for _, b := range traced {
		allocs += float64(b.mem.allocs)
		bytes += float64(b.mem.allocBytes)
		gcs += float64(b.mem.gcCycles)
		pauseNs += float64(b.mem.gcPauseNs)
		gcCPU += b.gcCPU
		cpu += b.cpu.Seconds()
		windows = append(windows, b.window.Seconds())
		maxDepth = max(maxDepth, float64(b.prof.Heap.MaxDepth))
		pool += float64(b.poolAllocs)
		if o := b.prof.Obs; o != nil {
			records += float64(o.Records)
			retained += float64(o.RetainedBytes)
			taxNs += float64(o.WallNs)
			for _, c := range o.Categories {
				catNs[c.Category] += float64(c.WallNs)
				catRecs[c.Category] += float64(c.Records)
			}
		}
	}
	nb := float64(len(traced))
	vals["runtime.allocs_per_pkt"] = ratio(allocs, offered)
	vals["runtime.alloc_bytes_per_pkt"] = ratio(bytes, offered)
	vals["runtime.gc_cycles"] = ratio(gcs, nb)
	vals["runtime.gc_cpu_share"] = ratio(gcCPU, cpu)
	vals["runtime.gc_pause_ms"] = ratio(pauseNs/1e6, nb)
	vals["obs.tax_share"] = ratio(taxNs, ev.attributed)
	vals["obs.records_per_pkt"] = ratio(records, offered)
	vals["obs.retained_bytes_per_pkt"] = ratio(retained, offered)
	for _, c := range obsCategories {
		vals["obs."+c+".ns"] = ratio(catNs[c], catRecs[c])
	}
	vals["sim.events_per_pkt"] = ratio(ev.events, offered)
	vals["sim.events_per_s"] = ratio(ev.events, ev.attributed/1e9)
	vals["sim.queue_depth_max"] = maxDepth
	vals["sim.pool_allocs"] = ratio(pool, nb)

	var untracedWin []float64
	for _, b := range untraced {
		untracedWin = append(untracedWin, b.window.Seconds())
	}
	vals["prof.overhead_ratio"] = ratio(median(windows), median(untracedWin))

	self := tr.selfTimes()
	perBatch := func(name string) float64 { return ratio(self[name].self.Seconds(), nb) }
	for _, s := range spanNames {
		vals["span."+s+".self_ms"] = perBatch(s) * 1e3
	}
	vals["urllcsim.new_scenario_us"] = perBatch("urllcsim.NewScenario") * 1e6
	vals["urllcsim.offer_ns_per_pkt"] = ratio(self["urllcsim.Scenario.SendFrom"].self.Seconds()*1e9, offered)
	vals["urllcsim.run_s"] = perBatch("urllcsim.Scenario.Run")
	vals["obs.export_jsonl_s"] = perBatch("obs.WriteJSONL")
	vals["analyze.kpi_s"] = perBatch("analyze.ComputeKPI")

	for k, v := range sim {
		vals[k] = v
	}
	vals["sched.grants_per_sr"] = ratio(vals["urllcsim.grants_issued"], vals["urllcsim.srs_sent"])
	return vals
}
