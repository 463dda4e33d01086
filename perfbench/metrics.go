package main

import "sort"

// metricDef declares one reported metric. The lists below are the single
// source of the names BENCHMARK.json declares; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, share of median
}

// endToEnd are measured on untraced batches. An operation is one offered
// packet; the window runs from the first Run call to the last output.
var endToEnd = []metricDef{
	{name: "pkts_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_pkt", unit: "us", better: "lower", bound: 0.25},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.05},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// nodeEvents are the engine event types the node layer schedules; each gets
// node.<event>.ns (mean wall per event) and node.<event>.share (of the event
// loop's attributed wall). The scheduler tick, gnb.tick, is reported as
// sched.tick.* instead.
var nodeEvents = []string{
	"ul.offer", "ul.ready", "ul.sr.recv", "ul.grant", "ul.rx", "ul.deliver",
	"dl.offer", "dl.gnb.down", "dl.enqueue", "dl.onair", "dl.rx", "dl.harq",
	"dl.radiomiss", "dl.ue.up",
}

// stackProbes are the public stack functions timed by the layer probes, and
// cryptoProbes the public crypto5g functions PDCP calls inside them.
var (
	stackProbes  = []string{"sdap_encap", "pdcp_protect", "rlc_segment", "mac_build_tb", "mac_parse_tb", "rlc_receive", "pdcp_unprotect", "sdap_decap"}
	cryptoProbes = []string{"nea2", "nia2"}
)

// obsCategories are the metered recorder categories (obs.MeterStat).
var obsCategories = []string{"span", "event", "outcome", "metric", "snapshot"}

// spanNames are the benchmark's own spans, one per public call site; each
// gets span.<name>.self_ms, the mean self time per batch.
var spanNames = []string{
	"batch", "obs.NewRecorder", "urllcsim.NewScenario", "urllcsim.Scenario.SendFrom",
	"prof.Attach", "urllcsim.Scenario.Run", "prof.Finish", "urllcsim.Scenario.counters",
	"analyze.ComputeKPI", "obs.WriteJSONL",
}

// perLayer are measured on the traced run.
var perLayer = func() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{name: name, unit: unit, better: better}) }
	add("sched.tick.ns", "ns", "lower")
	add("sched.tick.share", "ratio", "lower")
	add("sched.ticks_per_pkt", "count/pkt", "lower")
	add("sched.grants_per_sr", "ratio", "higher")
	for _, e := range nodeEvents {
		add("node."+e+".ns", "ns", "lower")
		add("node."+e+".share", "ratio", "lower")
	}
	for _, p := range stackProbes {
		add("stack."+p+".ns", "ns", "lower")
		add("stack."+p+".allocs", "allocs/call", "lower")
	}
	for _, p := range cryptoProbes {
		add("crypto5g."+p+".ns", "ns", "lower")
		add("crypto5g."+p+".allocs", "allocs/call", "lower")
	}
	add("stack.explained_share", "ratio", "higher")
	add("runtime.allocs_per_pkt", "allocs/pkt", "lower")
	add("runtime.alloc_bytes_per_pkt", "B/pkt", "lower")
	add("runtime.gc_cycles", "count", "lower")
	add("runtime.gc_cpu_share", "ratio", "lower")
	add("runtime.gc_pause_ms", "ms", "lower")
	add("obs.tax_share", "ratio", "lower")
	add("obs.records_per_pkt", "count/pkt", "lower")
	add("obs.retained_bytes_per_pkt", "B/pkt", "lower")
	add("obs.export_jsonl_s", "s", "lower")
	for _, c := range obsCategories {
		add("obs."+c+".ns", "ns", "lower")
	}
	add("analyze.kpi_s", "s", "lower")
	add("sim.events_per_pkt", "count/pkt", "lower")
	add("sim.events_per_s", "1/s", "higher")
	add("sim.queue_depth_max", "count", "lower")
	add("sim.pool_allocs", "count", "lower")
	add("urllcsim.new_scenario_us", "us", "lower")
	add("urllcsim.offer_ns_per_pkt", "ns", "lower")
	add("urllcsim.run_s", "s", "lower")
	add("urllcsim.sim_p50_us", "us", "lower")
	add("urllcsim.sim_tail_us", "us", "lower")
	add("urllcsim.sim_tail_pct", "%", "higher")
	add("urllcsim.sim_tail_n", "count", "higher")
	add("urllcsim.delivered_ratio", "ratio", "higher")
	add("urllcsim.deadline_met_ratio", "ratio", "higher")
	add("urllcsim.srs_sent", "count", "lower")
	add("urllcsim.grants_issued", "count", "higher")
	add("urllcsim.radio_misses", "count", "lower")
	add("urllcsim.phy_losses", "count", "lower")
	add("prof.overhead_ratio", "ratio", "lower")
	for _, s := range spanNames {
		add("span."+s+".self_ms", "ms", "lower")
	}
	return m
}()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill turns a name → value map into the result's metrics for defs, in
// their declared units. A value that is missing reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
