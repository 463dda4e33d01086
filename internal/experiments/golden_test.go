package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestDistributionGolden pins the full rendered output of the three
// latency-distribution experiments — Fig. 6, X1 (mmWave) and X6 (ping RTT) —
// at seeds 1 and 2 against testdata/<id>.golden. Any change to how their
// percentiles, sub-ms shares or histograms are computed shows up here as a
// cell-level diff; regenerate deliberately with
// `go test ./internal/experiments -run Golden -update`.
func TestDistributionGolden(t *testing.T) {
	for _, e := range []struct {
		id  string
		run func(seed uint64, workers int) (string, error)
	}{
		{"figure6", Figure6},
		{"mmwave", MmWave},
		{"rtt", RTT},
	} {
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			for _, seed := range []uint64{1, 2} {
				out, err := e.run(seed, 0)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&buf, "# seed %d\n%s", seed, out)
			}
			checkGolden(t, e.id+".golden", buf.Bytes())
		})
	}
}

// checkGolden compares got against testdata/name, rewriting the file first
// when the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (run with -update if intended)\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}
