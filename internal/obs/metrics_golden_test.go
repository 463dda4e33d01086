package obs

import (
	"bytes"
	"math/rand"
	"testing"

	"urllcsim/internal/sim"
)

// metricsFixture records a fixed pseudo-random latency workload: two
// exponential-tailed latency series at sub-microsecond resolution, one
// constant processing time, and a counter and a gauge.
func metricsFixture() *Registry {
	rec := NewRecorder()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		rec.Count("pkt.offered", 1)
		rec.Observe("lat.ul", sim.Duration(400_000+rng.ExpFloat64()*150_000))
		rec.Observe("lat.dl", sim.Duration(1_200_000+rng.ExpFloat64()*400_000))
		rec.Observe("gnb.proc.MAC", 12*sim.Microsecond)
	}
	rec.SetGauge("rlc.dl.queue_depth", 3)
	return rec.Metrics()
}

// TestMetricsCSVGolden pins WriteMetricsCSV's columns for the fixture
// against testdata/metrics.csv.golden; regenerate deliberately with
// `go test ./internal/obs -run Golden -update`.
func TestMetricsCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, metricsFixture()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.csv.golden", buf.Bytes())
}

// TestSummaryGolden pins Registry.Summary for the same fixture against
// testdata/summary.golden.
func TestSummaryGolden(t *testing.T) {
	checkGolden(t, "summary.golden", []byte(metricsFixture().Summary()))
}
