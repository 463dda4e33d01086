package stack

import (
	"bytes"
	"testing"

	"urllcsim/internal/pdu"
)

// encodedSegments segments sdu on SN sn into UMD PDUs of at most maxPDU
// bytes and encodes them.
func encodedSegments(t testing.TB, sdu []byte, sn byte, maxPDU int) [][]byte {
	t.Helper()
	segs, err := pdu.SegmentSDU(sdu, sn, maxPDU)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(segs))
	for i, s := range segs {
		if out[i], err = s.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRLCReceiveNoWedge: a segment sequence on one SN either completes its
// SDU or drops the SN's buffer with an error — never an over-full buffer
// that returns (nil, nil) forever — and the next clean SDU on that SN is
// delivered intact. A duplicated segment is ignored, not fatal.
func TestRLCReceiveNoWedge(t *testing.T) {
	const sn = 5
	a := encodedSegments(t, bytes.Repeat([]byte{0xA}, 200), sn, 128)
	b := encodedSegments(t, bytes.Repeat([]byte{0xB}, 200), sn, 128)
	past, _ := pdu.RLCUMPDU{SI: pdu.SIMiddle, SN: sn, SO: 300, Payload: []byte{1}}.Encode()
	if len(a) != 2 {
		t.Fatalf("want a first+last pair, got %d segments", len(a))
	}
	cases := []struct {
		name    string
		pdus    [][]byte
		wantErr bool
		want    []byte // SDU the sequence delivers, if any
	}{
		{"duplicate first", [][]byte{a[0], a[0], a[1]}, false, bytes.Repeat([]byte{0xA}, 200)},
		{"conflicting first", [][]byte{a[0], b[0]}, true, nil},
		{"segment past last", [][]byte{a[1], past}, true, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rx := NewRLC()
			var got []byte
			var gotErr error
			for _, p := range c.pdus {
				out, err := rx.Receive(p)
				if out != nil {
					got = out
				}
				if err != nil {
					gotErr = err
				}
			}
			if (gotErr != nil) != c.wantErr {
				t.Fatalf("error = %v, want error: %v", gotErr, c.wantErr)
			}
			if !bytes.Equal(got, c.want) {
				t.Fatalf("delivered %d bytes, want %d", len(got), len(c.want))
			}
			if len(rx.rx) != 0 {
				t.Fatalf("SN buffers left behind: %v", rx.rx)
			}
			next := bytes.Repeat([]byte{0xC}, 150)
			var out []byte
			for _, p := range encodedSegments(t, next, sn, 64) {
				o, err := rx.Receive(p)
				if err != nil {
					t.Fatalf("next SDU on SN %d: %v", sn, err)
				}
				if o != nil {
					out = o
				}
			}
			if !bytes.Equal(out, next) {
				t.Fatalf("next SDU on SN %d not delivered intact", sn)
			}
		})
	}
}
