package urllcsim

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"urllcsim/internal/obs"
	"urllcsim/internal/obs/analyze"
	"urllcsim/internal/obs/flight"
	"urllcsim/internal/obs/prof"
	"urllcsim/internal/sim"
)

// The JSONL readers behind urllc-report take files from disk: anything. Each
// must never panic, and any error it returns must be a single line, because
// the CLI prints it as its one-line diagnostic. The fuzz targets seed from
// real exports of a small scenario run (plus the empty file and a truncated
// copy) and run that corpus as part of the normal test suite; expand them
// with `go test -fuzz FuzzReadX`.

// exports is one small audited run written in every JSONL dialect.
type exports struct {
	trace, kpi, flight, profile, slots []byte
}

// realExports runs a 4-UE scenario with the recorder, slot ledger, flight
// recorder, watchdog and self-profiler attached, and writes each export the
// way cmd/urllcsim does.
func realExports(t testing.TB) exports {
	t.Helper()
	const deadline = 500 * time.Microsecond
	rec := obs.NewRecorder()
	rec.EnableSlotLedger()
	fr := flight.New(flight.Config{Deadline: sim.Duration(deadline), TopK: 4})
	wd := flight.NewWatchdog(flight.WatchdogConfig{
		Window: 8, MaxMissRate: 0.01, Deadline: sim.Duration(deadline), Rec: rec,
	})
	rec.SetTap(obs.Taps{fr, wd})
	sc, err := NewScenario(ScenarioConfig{
		Pattern: PatternDDDU, SlotScale: Slot0p5ms, Radio: RadioUSB2,
		UEs: 4, Seed: 3, Deadline: deadline, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := prof.Attach(sc.Engine())
	p.MeterObs(rec)
	const packets = 6
	for i := 0; i < packets; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		sc.SendUplinkFrom(i%4, at+137*time.Microsecond, 32)
		sc.SendDownlinkFrom(i%4, at+731*time.Microsecond, 32)
	}
	sc.Run(packets*2*time.Millisecond + 10*time.Millisecond) // drains: the slowest UL path here is ~6 ms
	rep := p.Finish()

	write := func(w func(io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := w(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	const label = "DDDU/0.5ms/usb2"
	return exports{
		trace: write(func(w io.Writer) error { return obs.WriteJSONL(w, rec) }),
		kpi: write(func(w io.Writer) error {
			return analyze.WriteKPIJSONL(w, analyze.ComputeKPI(analyze.FromRecorder(rec), label))
		}),
		flight: write(func(w io.Writer) error {
			if err := flight.WriteJSONL(w, fr.Set(), label); err != nil {
				return err
			}
			return flight.WriteAnomalies(w, wd.Anomalies())
		}),
		profile: write(rep.WriteJSONL),
		slots:   write(func(w io.Writer) error { return obs.WriteSlotsJSONL(w, rec.Slots(), label) }),
	}
}

// fuzzReader seeds f with a real export and runs read on every input.
func fuzzReader(f *testing.F, export []byte, read func(io.Reader) error) {
	if err := read(bytes.NewReader(export)); err != nil {
		f.Fatalf("reader rejects a real export: %v", err)
	}
	f.Add(export)
	f.Add(export[:len(export)*2/3]) // cut mid-record
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := read(bytes.NewReader(data)); err != nil && strings.ContainsAny(err.Error(), "\r\n") {
			t.Fatalf("error spans lines: %q", err)
		}
	})
}

func FuzzReadTraceJSONL(f *testing.F) {
	fuzzReader(f, realExports(f).trace, func(r io.Reader) error {
		_, err := analyze.ReadJSONL(r)
		return err
	})
}

func FuzzReadKPIJSONL(f *testing.F) {
	fuzzReader(f, realExports(f).kpi, func(r io.Reader) error {
		_, err := analyze.ReadKPIJSONL(r)
		return err
	})
}

func FuzzReadFlightJSONL(f *testing.F) {
	fuzzReader(f, realExports(f).flight, func(r io.Reader) error {
		_, err := flight.ReadJSONL(r)
		return err
	})
}

func FuzzReadProfileJSONL(f *testing.F) {
	fuzzReader(f, realExports(f).profile, func(r io.Reader) error {
		_, err := prof.ReadJSONL(r)
		return err
	})
}

func FuzzReadSlotsJSONL(f *testing.F) {
	fuzzReader(f, realExports(f).slots, func(r io.Reader) error {
		_, err := obs.ReadSlotsJSONL(r)
		return err
	})
}
