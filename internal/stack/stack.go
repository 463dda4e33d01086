// Package stack implements the layer machines of the 5G user plane: SDAP
// (QoS flow mapping), PDCP (sequence numbering, NEA2 ciphering, NIA2
// integrity), RLC UM (segmentation, reassembly, the RLC queue whose waiting
// time dominates the paper's Table 2), and MAC multiplexing. Bytes really
// flow: every PDU is encoded with the wire formats of internal/pdu and
// decoded on the far side; integrity failures and malformed PDUs surface as
// errors exactly where a real stack would drop them.
//
// Timing is deliberately not in this package — the DES (internal/node)
// charges processing time around these calls using internal/proc profiles.
package stack

import (
	"bytes"
	"errors"
	"fmt"

	"urllcsim/internal/crypto5g"
	"urllcsim/internal/pdu"
	"urllcsim/internal/sim"
)

// SDAP maps application SDUs onto a QoS flow.
type SDAP struct {
	QFI      byte
	Downlink bool
}

// Encap adds the SDAP header.
func (s *SDAP) Encap(data []byte) []byte {
	return pdu.SDAPHeader{DataPDU: true, QFI: s.QFI, Downlink: s.Downlink}.Encode(data)
}

// Decap strips and validates the SDAP header.
func (s *SDAP) Decap(buf []byte) ([]byte, error) {
	h, payload, err := pdu.DecodeSDAP(buf, s.Downlink)
	if err != nil {
		return nil, err
	}
	if h.QFI != s.QFI {
		return nil, fmt.Errorf("stack: SDAP QFI %d, expected %d", h.QFI, s.QFI)
	}
	return payload, nil
}

// PDCP is one direction of a PDCP entity: COUNT maintenance, ciphering and
// integrity. A DRB uses one TX entity on the sender and one RX entity on
// the receiver, sharing keys and bearer identity.
type PDCP struct {
	SNBits    pdu.PDCPSNBits
	Bearer    byte
	Direction crypto5g.Direction
	CipherKey []byte // 16 bytes; nil disables ciphering
	IntegKey  []byte // 16 bytes; nil disables integrity

	txNext uint32 // next COUNT to assign
	rxNext uint32 // next expected COUNT
}

// Protect turns an SDAP PDU into a PDCP Data PDU: assign SN, compute MAC-I
// over the plaintext, cipher, encode.
func (p *PDCP) Protect(data []byte) ([]byte, error) {
	count := p.txNext
	p.txNext++
	var maci []byte
	if p.IntegKey != nil {
		m, err := crypto5g.NIA2(p.IntegKey, count, p.Bearer, p.Direction, data)
		if err != nil {
			return nil, err
		}
		maci = m[:]
	}
	payload := data
	if p.CipherKey != nil {
		ct, err := crypto5g.NEA2(p.CipherKey, count, p.Bearer, p.Direction, data)
		if err != nil {
			return nil, err
		}
		payload = ct
	}
	return pdu.PDCPDataPDU{
		SN:      count & ((1 << uint(p.SNBits)) - 1),
		SNBits:  p.SNBits,
		Payload: payload,
		MACI:    maci,
	}.Encode()
}

// Unprotect inverts Protect: decode, decipher, verify integrity. The COUNT
// is reconstructed from the SN against rxNext (window logic simplified to
// nearest COUNT — sufficient for the in-order UM flows simulated here).
func (p *PDCP) Unprotect(buf []byte) ([]byte, error) {
	d, err := pdu.DecodePDCP(buf, p.SNBits, p.IntegKey != nil)
	if err != nil {
		return nil, err
	}
	count := p.reconstructCount(d.SN)
	data := d.Payload
	if p.CipherKey != nil {
		pt, err := crypto5g.NEA2(p.CipherKey, count, p.Bearer, p.Direction, d.Payload)
		if err != nil {
			return nil, err
		}
		data = pt
	}
	if p.IntegKey != nil {
		var mac [crypto5g.MACSize]byte
		copy(mac[:], d.MACI)
		if !crypto5g.VerifyNIA2(p.IntegKey, count, p.Bearer, p.Direction, data, mac) {
			return nil, fmt.Errorf("stack: PDCP integrity failure at COUNT %d", count)
		}
	}
	if count >= p.rxNext {
		p.rxNext = count + 1
	}
	return data, nil
}

// reconstructCount maps a received SN onto the full COUNT closest to rxNext.
func (p *PDCP) reconstructCount(sn uint32) uint32 {
	window := uint32(1) << uint(p.SNBits)
	base := p.rxNext &^ (window - 1)
	cand := base | sn
	// Choose among cand-window, cand, cand+window whichever is closest to
	// rxNext.
	best := cand
	bestDist := dist(cand, p.rxNext)
	if cand >= window {
		if d := dist(cand-window, p.rxNext); d < bestDist {
			best, bestDist = cand-window, d
		}
	}
	if d := dist(cand+window, p.rxNext); d < bestDist {
		best = cand + window
	}
	return best
}

func dist(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// RLC is a UM-mode RLC entity: TX side segments SDUs to the MAC's PDU size,
// RX side reassembles. The TX queue is the "RLC-q" of Table 2 — SDUs wait
// here until the scheduler serves them.
type RLC struct {
	sn byte

	queue []RLCQueued
	rx    map[byte][]pdu.RLCUMPDU
}

// RLCQueued is one SDU waiting in the RLC queue.
type RLCQueued struct {
	ID         int
	Data       []byte
	EnqueuedAt sim.Time
}

// NewRLC returns an empty entity.
func NewRLC() *RLC {
	return &RLC{rx: map[byte][]pdu.RLCUMPDU{}}
}

// Enqueue admits an SDU to the TX queue.
func (r *RLC) Enqueue(q RLCQueued) { r.queue = append(r.queue, q) }

// QueueLen returns the number of waiting SDUs.
func (r *RLC) QueueLen() int { return len(r.queue) }

// QueuedBytes returns the waiting byte total.
func (r *RLC) QueuedBytes() int {
	n := 0
	for _, q := range r.queue {
		n += len(q.Data)
	}
	return n
}

// Peek returns the queue contents without consuming.
func (r *RLC) Peek() []RLCQueued { return r.queue }

// DequeueIDs removes the SDUs with the given IDs (scheduler-selected) and
// returns them in queue order.
func (r *RLC) DequeueIDs(ids []int) []RLCQueued {
	want := map[int]bool{}
	for _, id := range ids {
		want[id] = true
	}
	var taken []RLCQueued
	var rest []RLCQueued
	for _, q := range r.queue {
		if want[q.ID] {
			taken = append(taken, q)
		} else {
			rest = append(rest, q)
		}
	}
	r.queue = rest
	return taken
}

// Segment encodes an SDU into RLC PDU bytes bounded by maxPDU each,
// assigning the next SN.
func (r *RLC) Segment(sdu []byte, maxPDU int) ([][]byte, error) {
	sn := r.sn
	r.sn = (r.sn + 1) & 0x3F
	pdus, err := pdu.SegmentSDU(sdu, sn, maxPDU)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(pdus))
	for i, p := range pdus {
		enc, err := p.Encode()
		if err != nil {
			return nil, err
		}
		out[i] = enc
	}
	return out, nil
}

// Receive ingests one RLC PDU; when it completes an SDU, the SDU is
// returned (nil otherwise). An exact duplicate of a buffered segment is
// ignored. Segments that can never form an SDU — overlapping, or past the
// last segment — drop the SN's buffer and return an error, so a stale
// buffer cannot swallow the next SDU that reuses the SN.
func (r *RLC) Receive(buf []byte) ([]byte, error) {
	p, err := pdu.DecodeRLCUM(buf)
	if err != nil {
		return nil, err
	}
	if p.SI == pdu.SIFull {
		return p.Payload, nil
	}
	segs := r.rx[p.SN]
	for _, s := range segs {
		if s.SI == p.SI && s.SO == p.SO && bytes.Equal(s.Payload, p.Payload) {
			return nil, nil
		}
	}
	segs = append(segs, p)
	r.rx[p.SN] = segs
	sdu, err := pdu.ReassembleSDU(segs)
	if errors.Is(err, pdu.ErrIncomplete) {
		return nil, nil
	}
	delete(r.rx, p.SN)
	return sdu, err
}

// MAC multiplexes RLC PDUs of one logical channel into transport blocks.
type MAC struct {
	LCID byte
}

// BuildTB multiplexes payloads into one transport block of exactly tbBytes
// (padded). Payloads that do not fit are rejected.
func (m *MAC) BuildTB(payloads [][]byte, tbBytes int) ([]byte, error) {
	subs := make([]pdu.MACSubPDU, len(payloads))
	for i, p := range payloads {
		subs[i] = pdu.MACSubPDU{LCID: m.LCID, Payload: p}
	}
	return pdu.EncodeMACPDU(subs, tbBytes)
}

// ParseTB demultiplexes a transport block, returning the payloads of this
// entity's LCID.
func (m *MAC) ParseTB(tb []byte) ([][]byte, error) {
	subs, err := pdu.DecodeMACPDU(tb)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, s := range subs {
		if s.LCID == m.LCID {
			out = append(out, s.Payload)
		}
	}
	return out, nil
}
