package stack

import (
	"bytes"
	"cmp"
	"slices"
	"testing"

	"urllcsim/internal/pdu"
)

// frame joins PDUs into one fuzz input: each PDU is prefixed with its
// length byte (PDUs here stay under 256 bytes).
func frame(pdus ...[]byte) []byte {
	var out []byte
	for _, p := range pdus {
		out = append(out, byte(len(p)))
		out = append(out, p...)
	}
	return out
}

// FuzzRLCReceive feeds a sequence of PDUs, length-prefixed in the input,
// into one RLC receiver. Receive must never panic, and after every call each
// SN's buffer must be one that could still complete: no overlapping
// segments, nothing past a last segment, and not already a whole SDU.
func FuzzRLCReceive(f *testing.F) {
	tx := NewRLC()
	a, _ := tx.Segment(bytes.Repeat([]byte{0xA}, 200), 128)
	b, _ := tx.Segment(bytes.Repeat([]byte{0xB}, 300), 100)
	f.Add(frame(a...))
	f.Add(frame(a[0], a[0], a[1]))
	f.Add(frame(b[2], b[0], a[1], b[1], a[0]))
	f.Add(frame(b[0], a[1], b[0], b[1]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rx := NewRLC()
		for len(data) > 0 {
			n := min(int(data[0]), len(data)-1)
			buf := data[1 : 1+n]
			data = data[1+n:]
			sdu, err := rx.Receive(buf)
			if sdu != nil && err != nil {
				t.Fatalf("Receive returned both an SDU and %v", err)
			}
			for sn, segs := range rx.rx {
				checkCompletable(t, sn, segs)
			}
		}
	})
}

// checkCompletable fails unless segs, the buffer of one SN, could still be
// completed by further segments.
func checkCompletable(t *testing.T, sn byte, segs []pdu.RLCUMPDU) {
	t.Helper()
	sorted := slices.SortedFunc(slices.Values(segs), func(a, b pdu.RLCUMPDU) int { return cmp.Compare(a.SO, b.SO) })
	end, gap, last := 0, false, false
	for _, s := range sorted {
		if last {
			t.Fatalf("SN %d buffers a segment at byte %d past its last segment", sn, s.SO)
		}
		if int(s.SO) < end {
			t.Fatalf("SN %d buffers overlapping segments at byte %d", sn, s.SO)
		}
		gap = gap || int(s.SO) > end
		end = int(s.SO) + len(s.Payload)
		last = s.SI == pdu.SILast
	}
	if last && !gap {
		t.Fatalf("SN %d buffers a whole SDU (%d bytes) without delivering it", sn, end)
	}
}

// FuzzMACParseTB demultiplexes an arbitrary transport block. ParseTB must
// never panic or return more payload bytes than the block holds, and the
// payloads it returns must survive a BuildTB/ParseTB round trip unchanged.
func FuzzMACParseTB(f *testing.F) {
	m := &MAC{LCID: 4}
	segs, _ := NewRLC().Segment(bytes.Repeat([]byte{0x5}, 300), 100)
	for _, tb := range [][][]byte{segs, segs[:1], {bytes.Repeat([]byte{1}, 300)}} {
		seed, _ := m.BuildTB(tb, 400)
		f.Add(seed)
	}
	other, _ := pdu.EncodeMACPDU([]pdu.MACSubPDU{{LCID: pdu.LCIDShortBSR, Payload: []byte{9}}, {LCID: 5, Payload: segs[0]}}, 200)
	f.Add(other)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, tb []byte) {
		payloads, err := m.ParseTB(tb)
		if err != nil {
			return
		}
		need, total := 0, 0
		for _, p := range payloads {
			need += pdu.MACSubPDU{LCID: m.LCID, Payload: p}.EncodedSize()
			total += len(p)
		}
		if total > len(tb) {
			t.Fatalf("parsed %d payload bytes out of a %d-byte block", total, len(tb))
		}
		rebuilt, err := m.BuildTB(payloads, need+len(tb)%4)
		if err != nil {
			t.Fatalf("parsed payloads do not rebuild: %v", err)
		}
		again, err := m.ParseTB(rebuilt)
		if err != nil {
			t.Fatalf("rebuilt block does not parse: %v", err)
		}
		if len(again) != len(payloads) {
			t.Fatalf("round trip gave %d payloads, want %d", len(again), len(payloads))
		}
		for i := range again {
			if !bytes.Equal(again[i], payloads[i]) {
				t.Fatalf("payload %d changed in the round trip", i)
			}
		}
	})
}
