package isis

import (
	"fmt"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// Message kinds exchanged between processes. One envelope type carries every
// protocol message; unused fields are left zero.
const (
	kHeartbeat   uint8 = iota + 1 // liveness beacon
	kLookupReq                    // find members of a group by name
	kLookupResp                   // reply carrying current members
	kCastReq                      // origin -> coordinator: please sequence
	kCastSeq                      // coordinator -> members: sequenced message
	kCastAck                      // member -> coordinator: delivered through Seq
	kCastNack                     // member -> coordinator: missing sequence numbers
	kReply                        // member -> origin: application reply
	kJoinReq                      // joiner -> any member
	kJoinFwd                      // member -> coordinator: forwarded join
	kLeaveReq                     // member -> coordinator
	kSuspect                      // member -> coordinator(-elect): failure report
	kNewView                      // coordinator -> members
	kStateXfer                    // coordinator -> joiner: snapshot + view
	kRecoverReq                   // coordinator-elect -> survivors
	kRecoverResp                  // survivor -> coordinator-elect
	kProbe                        // coordinator -> lost member (partition heal)
	kProbeWin                     // winner side -> loser coordinator
	kProbeGone                    // probed node has no such group
	kDissolve                     // loser coordinator -> its members
)

// Envelope flags.
const (
	flagReconcile uint8 = 1 << iota // join should Merge, not Restore
	flagBatchCast                   // cast payload is a batch frame (see batch.go)
)

// env is the single wire format for all ISIS messages.
type env struct {
	Kind     uint8
	Flags    uint8
	Group    string
	ViewID   uint64
	Seq      uint64
	Origin   simnet.NodeID // original sender for relayed messages
	MsgID    uint64        // origin-local cast identifier
	Inc      uint64        // origin's membership incarnation (see gstate.inc)
	Acked    uint64        // highest contiguously delivered seq
	Payload  []byte
	Snapshot []byte
	Members  []simnet.NodeID
	Seqs     []uint64
	Batch    []seqRecord // retransmission batches (kRecoverResp)
}

// seqRecord is a logged sequenced cast, kept for recovery retransmission.
type seqRecord struct {
	Seq     uint64
	Origin  simnet.NodeID
	MsgID   uint64
	Inc     uint64 // origin's incarnation when the cast was issued
	Flags   uint8  // cast flags (flagBatchCast), preserved across resends
	Payload []byte
}

func (m *env) MarshalWire(e *wire.Encoder) {
	e.Uint8(m.Kind)
	e.Uint8(m.Flags)
	e.String(m.Group)
	e.Uint64(m.ViewID)
	e.Uint64(m.Seq)
	e.String(string(m.Origin))
	e.Uint64(m.MsgID)
	e.Uint64(m.Inc)
	e.Uint64(m.Acked)
	e.Bytes32(m.Payload)
	e.Bytes32(m.Snapshot)
	e.Uint32(uint32(len(m.Members)))
	for _, id := range m.Members {
		e.String(string(id))
	}
	e.Uint64Slice(m.Seqs)
	e.Uint32(uint32(len(m.Batch)))
	for i := range m.Batch {
		r := &m.Batch[i]
		e.Uint64(r.Seq)
		e.String(string(r.Origin))
		e.Uint64(r.MsgID)
		e.Uint64(r.Inc)
		e.Uint8(r.Flags)
		e.Bytes32(r.Payload)
	}
}

// SizeWire mirrors MarshalWire field for field; wire.MarshalSized asserts
// the two stay in lockstep.
func (m *env) SizeWire() int {
	n := 1 + 1 + // Kind, Flags
		wire.SizeString(m.Group) +
		8 + 8 + // ViewID, Seq
		wire.SizeString(string(m.Origin)) +
		8 + 8 + 8 + // MsgID, Inc, Acked
		wire.SizeBytes32(m.Payload) +
		wire.SizeBytes32(m.Snapshot)
	n += 4
	for _, id := range m.Members {
		n += wire.SizeString(string(id))
	}
	n += wire.SizeUint64Slice(m.Seqs)
	n += 4
	for i := range m.Batch {
		r := &m.Batch[i]
		n += 8 + wire.SizeString(string(r.Origin)) + 8 + 8 + 1 + wire.SizeBytes32(r.Payload)
	}
	return n
}

func (m *env) UnmarshalWire(d *wire.Decoder) error {
	m.Kind = d.Uint8()
	m.Flags = d.Uint8()
	m.Group = d.String()
	m.ViewID = d.Uint64()
	m.Seq = d.Uint64()
	m.Origin = simnet.NodeID(d.String())
	m.MsgID = d.Uint64()
	m.Inc = d.Uint64()
	m.Acked = d.Uint64()
	m.Payload = d.Bytes32()
	m.Snapshot = d.Bytes32()
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return err
	}
	if n > 0 {
		m.Members = make([]simnet.NodeID, 0, min(n, 1024))
		for i := 0; i < n; i++ {
			m.Members = append(m.Members, simnet.NodeID(d.String()))
		}
	}
	m.Seqs = d.Uint64Slice()
	bn := int(d.Uint32())
	if err := d.Err(); err != nil {
		return err
	}
	if bn > 0 {
		m.Batch = make([]seqRecord, 0, min(bn, 1024))
		for i := 0; i < bn; i++ {
			var r seqRecord
			r.Seq = d.Uint64()
			r.Origin = simnet.NodeID(d.String())
			r.MsgID = d.Uint64()
			r.Inc = d.Uint64()
			r.Flags = d.Uint8()
			r.Payload = d.Bytes32()
			m.Batch = append(m.Batch, r)
		}
	}
	return d.Err()
}

func (m *env) String() string {
	return fmt.Sprintf("env{kind=%d group=%s view=%d seq=%d origin=%s msgid=%d}",
		m.Kind, m.Group, m.ViewID, m.Seq, m.Origin, m.MsgID)
}

// encodeEnv encodes an envelope into one exact-size buffer the caller may
// retain (lookup retransmission keeps the bytes across ticks). Transient
// send paths use sendPooled instead.
func encodeEnv(m *env) []byte { return wire.MarshalSized(m) }

// sendPooled encodes m into a pooled encoder, hands the bytes to the
// transport — both transports finish with the buffer before Send returns
// (the simulated network copies, the TCP transport writes synchronously) —
// and returns the encoder to the pool. The steady cast path allocates
// nothing here.
func sendPooled(tr simnet.Transport, to simnet.NodeID, m *env) error {
	e := wire.GetEncoder()
	m.MarshalWire(e)
	err := tr.Send(to, e.Bytes())
	wire.PutEncoder(e)
	return err
}

func decodeEnv(data []byte) (*env, error) {
	m := new(env)
	if err := wire.Unmarshal(data, m); err != nil {
		return nil, err
	}
	return m, nil
}
