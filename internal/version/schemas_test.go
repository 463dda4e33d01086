package version_test

import (
	"testing"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
	"urllcsim/internal/version"
)

// TestSchemaRegistry pins internal/version's schema registry to the
// constants each producing package declares next to its writer. A mismatch
// means a dialect was renamed or added on one side only — -version output,
// cmd/urllc-report triage and the wire format must move together.
func TestSchemaRegistry(t *testing.T) {
	pairs := []struct {
		registry, producer, name string
	}{
		{version.SchemaTrace, obs.TraceSchema, "trace"},
		{version.SchemaFlight, flight.Schema, "flight"},
		{version.SchemaAnomaly, flight.AnomalySchema, "anomaly"},
		{version.SchemaProfile, prof.ReportSchema, "profile"},
		{version.SchemaSlots, obs.SlotsSchema, "slots"},
		{version.SchemaKPI, analyze.KPISchema, "kpi"},
	}
	for _, p := range pairs {
		if p.registry != p.producer {
			t.Errorf("%s schema: registry says %q, producer says %q", p.name, p.registry, p.producer)
		}
		if !version.Known(p.producer) {
			t.Errorf("%s schema %q not in version.Schemas()", p.name, p.producer)
		}
	}
	if got, want := len(version.Schemas()), len(pairs); got != want {
		t.Errorf("version.Schemas() lists %d dialects, %d producers are registered here — update both", got, want)
	}
	if version.Known("urllcsim-made-up/v1") {
		t.Error("Known accepted an unregistered schema")
	}
}
