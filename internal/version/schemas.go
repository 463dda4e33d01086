package version

// The schema identifiers of every JSONL dialect this repository writes.
// Each producing package declares its own constant next to its writer (the
// string is part of that package's wire contract); this registry re-states
// them in one place so `-version` output, documentation and the
// cross-dialect readers of cmd/urllc-report agree on the full list without
// importing every producer. TestSchemaRegistry in this package pins
// the two copies together.
const (
	SchemaTrace   = "urllcsim-trace/v1"   // obs.WriteJSONL span/outcome/event traces
	SchemaFlight  = "urllcsim-flight/v1"  // tail-forensics flight records
	SchemaAnomaly = "urllcsim-anomaly/v1" // watchdog anomaly events
	SchemaProfile = "urllcsim-profile/v3" // engine self-profile records
	SchemaSlots   = "urllcsim-slots/v1"   // per-slot occupancy ledger
	SchemaKPI     = "urllcsim-kpi/v1"     // per-UE KPI / fairness / CCDF records
)

// Schemas lists every registered schema identifier, in declaration order.
func Schemas() []string {
	return []string{
		SchemaTrace, SchemaFlight, SchemaAnomaly, SchemaProfile,
		SchemaSlots, SchemaKPI,
	}
}

// Known reports whether s is a schema identifier this build knows about —
// the first triage question when a reader rejects a file.
func Known(s string) bool {
	for _, k := range Schemas() {
		if k == s {
			return true
		}
	}
	return false
}
