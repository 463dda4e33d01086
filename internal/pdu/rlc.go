package pdu

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"urllcsim/internal/bits"
)

// SegmentInfo is the RLC UM SI field (TS 38.322 §6.2.2.3).
type SegmentInfo byte

const (
	SIFull   SegmentInfo = 0b00 // complete SDU
	SIFirst  SegmentInfo = 0b01 // first segment
	SILast   SegmentInfo = 0b10 // last segment
	SIMiddle SegmentInfo = 0b11 // middle segment
)

func (s SegmentInfo) String() string {
	switch s {
	case SIFull:
		return "full"
	case SIFirst:
		return "first"
	case SILast:
		return "last"
	case SIMiddle:
		return "middle"
	default:
		return "si?"
	}
}

// RLCUMPDU is an RLC UMD PDU with 6-bit SN (TS 38.322 §6.2.2.3): complete
// SDUs carry only the SI octet; segments add the SN; middle/last segments
// add a 16-bit segmentation offset.
type RLCUMPDU struct {
	SI      SegmentInfo
	SN      byte   // 6-bit, absent on the wire for SIFull
	SO      uint16 // segment offset, present for SILast/SIMiddle
	Payload []byte
}

// Encode renders the PDU.
func (p RLCUMPDU) Encode() ([]byte, error) {
	if p.SN >= 64 {
		return nil, fmt.Errorf("pdu: RLC SN %d exceeds 6 bits", p.SN)
	}
	if len(p.Payload) == 0 {
		return nil, fmt.Errorf("pdu: RLC PDU without payload")
	}
	w := bits.NewWriter()
	w.WriteBits(uint64(p.SI), 2)
	switch p.SI {
	case SIFull:
		w.WriteBits(0, 6) // R
	case SIFirst:
		w.WriteBits(uint64(p.SN), 6)
	case SILast, SIMiddle:
		w.WriteBits(uint64(p.SN), 6)
		w.WriteBits(uint64(p.SO), 16)
	default:
		return nil, fmt.Errorf("pdu: invalid SI %d", p.SI)
	}
	w.WriteBytes(p.Payload)
	return w.Bytes(), nil
}

// HeaderBytes returns the header length for the PDU's SI.
func (p RLCUMPDU) HeaderBytes() int {
	switch p.SI {
	case SIFull, SIFirst:
		return 1
	default:
		return 3
	}
}

// DecodeRLCUM parses an RLC UMD PDU with 6-bit SN.
func DecodeRLCUM(buf []byte) (RLCUMPDU, error) {
	var p RLCUMPDU
	if len(buf) < 2 {
		return p, fmt.Errorf("pdu: RLC PDU too short (%dB)", len(buf))
	}
	r := bits.NewReader(buf)
	si, _ := r.ReadBits(2)
	p.SI = SegmentInfo(si)
	switch p.SI {
	case SIFull:
		r.ReadBits(6)
	case SIFirst:
		sn, _ := r.ReadBits(6)
		p.SN = byte(sn)
	case SILast, SIMiddle:
		sn, _ := r.ReadBits(6)
		p.SN = byte(sn)
		so, err := r.ReadBits(16)
		if err != nil {
			return p, fmt.Errorf("pdu: RLC segment missing SO: %w", err)
		}
		p.SO = uint16(so)
	}
	payload, err := r.Rest()
	if err != nil {
		return p, err
	}
	if len(payload) == 0 {
		return p, fmt.Errorf("pdu: RLC PDU without payload")
	}
	p.Payload = payload
	return p, nil
}

// SegmentSDU splits an RLC SDU into UMD PDUs whose encoded size does not
// exceed maxPDU bytes each. A single PDU (SIFull) is produced when it fits.
// The SN is stamped on every segment of the SDU.
func SegmentSDU(sdu []byte, sn byte, maxPDU int) ([]RLCUMPDU, error) {
	if maxPDU < 4 {
		return nil, fmt.Errorf("pdu: maxPDU %d too small to ever carry a segment", maxPDU)
	}
	if len(sdu) == 0 {
		return nil, fmt.Errorf("pdu: empty RLC SDU")
	}
	if len(sdu)+1 <= maxPDU {
		return []RLCUMPDU{{SI: SIFull, Payload: sdu}}, nil
	}
	var out []RLCUMPDU
	off := 0
	for off < len(sdu) {
		var si SegmentInfo
		var hdr int
		switch {
		case off == 0:
			si, hdr = SIFirst, 1
		case len(sdu)-off+3 <= maxPDU:
			si, hdr = SILast, 3
		default:
			si, hdr = SIMiddle, 3
		}
		take := maxPDU - hdr
		if take > len(sdu)-off {
			take = len(sdu) - off
		}
		out = append(out, RLCUMPDU{SI: si, SN: sn, SO: uint16(off), Payload: sdu[off : off+take]})
		off += take
	}
	return out, nil
}

// ErrIncomplete reports that the segments of one SN are consistent but do not
// yet cover an SDU: the last segment has not arrived, or bytes before its end
// are still missing. A receiver keeps buffering on it. Every other
// ReassembleSDU error means the buffered segments can never form an SDU,
// whatever arrives next.
var ErrIncomplete = errors.New("pdu: SDU incomplete")

// ReassembleSDU inverts SegmentSDU given segments of one SN in any order; it
// sorts segs by offset in place. It returns the SDU once the segments cover
// it exactly, an error wrapping ErrIncomplete while they are a consistent
// shortfall, and any other error when they overlap, carry two last segments
// or reach past the last segment's end.
func ReassembleSDU(segs []RLCUMPDU) ([]byte, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("pdu: no segments")
	}
	if len(segs) == 1 && segs[0].SI == SIFull {
		return segs[0].Payload, nil
	}
	slices.SortFunc(segs, func(a, b RLCUMPDU) int { return cmp.Compare(a.SO, b.SO) })
	end := 0 // end of the segments seen so far, in offset order
	gap := false
	var last *RLCUMPDU
	for i := range segs {
		s := &segs[i]
		so := int(s.SO)
		switch {
		case s.SI == SIFirst && so != 0:
			return nil, fmt.Errorf("pdu: first segment with SO=%d", so)
		case last != nil:
			return nil, fmt.Errorf("pdu: segment at byte %d past the last segment", so)
		case so < end:
			return nil, fmt.Errorf("pdu: overlapping segments at byte %d", so)
		case so > end:
			gap = true
		}
		end = so + len(s.Payload)
		if s.SI == SILast {
			last = s
		}
	}
	if last == nil {
		return nil, fmt.Errorf("%w: last segment missing", ErrIncomplete)
	}
	if gap {
		return nil, fmt.Errorf("%w: gap before byte %d", ErrIncomplete, end)
	}
	out := make([]byte, 0, end)
	for _, s := range segs {
		out = append(out, s.Payload...)
	}
	return out, nil
}
