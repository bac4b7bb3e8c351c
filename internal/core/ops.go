package core

import (
	"repro/internal/derr"
	"repro/internal/simnet"
	"repro/internal/version"
	"repro/internal/wire"
)

// replyFail builds a cast rejection carrying a typed code. The state
// machine uses it for every refusal, so the code — not string matching —
// is what crosses the group boundary.
func replyFail(code derr.Code, msg string) *castReply {
	return &castReply{Code: uint16(code), Err: msg}
}

// failed reports whether the reply is a rejection.
func (r *castReply) failed() bool { return r.Code != 0 || r.Err != "" }

// Operation codes for file-group casts. Each cast is applied by every group
// member in the same total order, so the per-file metadata they drive (token
// location, replica sets, stability marks, parameters) is a replicated state
// machine.
const (
	opUpdate         uint8 = iota + 1 // distribute a data update (§3.2, Fig 4)
	_                                 // 2 is reserved: older minors' unstable mark, now part of opTokenUpdate
	opMarkStable                      // stability notification: stream quiesced (§3.4)
	_                                 // 4 is reserved: older minors' token request, now part of opTokenUpdate
	opRequestReplica                  // ask the token holder to create a replica (§3.1)
	opBeginTransfer                   // holder: transfer starting; delay updates (§3.1)
	opReplicaReady                    // target: replica installed; resume updates
	opAbortTransfer                   // holder: transfer timed out
	opDeleteReplica                   // remove one replica (§3.1)
	opDeleteSeg                       // delete the whole segment (all versions)
	opDeleteMajor                     // delete one version (§3.5 version control)
	opSetParams                       // change the semantic parameters (§4, §5.1)
	opReconcile                       // merge divergent metadata after partition heal (§3.6)
	opForceStable                     // failure path: force most-up-to-date replica stable (§3.6)
	opInquiry                         // read-only replica state poll (§3.6 read recovery)
	opTokenUpdate                     // every write's first op: token request + unstable mark + update (§3.3)
	opReadToken                       // grant a shared read token (§4 read-side concurrency)
)

// Token request outcomes.
const (
	tokGranted     uint8 = iota + 1 // token passed within the same major
	tokGrantedNew                   // holder unreachable; new major generated
	tokUnavailable                  // availability level forbids regeneration
	tokBusy                         // transfer in progress; retry
	tokHeld                         // already held in an unstable stream: the slot moved no token and marked nothing
)

// castMsg is the single encoding for all group cast payloads.
type castMsg struct {
	Op       uint8
	Major    uint64
	NewMajor uint64 // proposed major for token regeneration
	Off      int64
	Data     []byte
	Truncate bool
	Expect   version.Pair
	Pair     version.Pair
	Target   simnet.NodeID
	Source   simnet.NodeID
	Params   Params
	Snapshot []byte
	// HasData asserts the token requester holds a replica of Major's data,
	// a precondition for token regeneration: "file data is drawn from the
	// existing available replica" (§3.5). A fork generated without any
	// data-holding member would be unreadable yet still supersede its
	// ancestor under the §3.6 branch-point rule.
	HasData bool
}

// MarshalWire implements wire.Marshaler.
func (m *castMsg) MarshalWire(e *wire.Encoder) {
	e.Uint8(m.Op)
	e.Uint64(m.Major)
	e.Uint64(m.NewMajor)
	e.Int64(m.Off)
	e.Bytes32(m.Data)
	e.Bool(m.Truncate)
	m.Expect.MarshalWire(e)
	m.Pair.MarshalWire(e)
	e.String(string(m.Target))
	e.String(string(m.Source))
	m.Params.MarshalWire(e)
	e.Bytes32(m.Snapshot)
	e.Bool(m.HasData)
}

// SizeWire implements wire.Sizer, mirroring MarshalWire field for field.
func (m *castMsg) SizeWire() int {
	return 1 + 8 + 8 + 8 +
		wire.SizeBytes32(m.Data) +
		1 +
		m.Expect.SizeWire() + m.Pair.SizeWire() +
		wire.SizeString(string(m.Target)) + wire.SizeString(string(m.Source)) +
		m.Params.SizeWire() +
		wire.SizeBytes32(m.Snapshot) +
		1
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *castMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Op = d.Uint8()
	m.Major = d.Uint64()
	m.NewMajor = d.Uint64()
	m.Off = d.Int64()
	m.Data = d.Bytes32()
	m.Truncate = d.Bool()
	if err := m.Expect.UnmarshalWire(d); err != nil {
		return err
	}
	if err := m.Pair.UnmarshalWire(d); err != nil {
		return err
	}
	m.Target = simnet.NodeID(d.String())
	m.Source = simnet.NodeID(d.String())
	if err := m.Params.UnmarshalWire(d); err != nil {
		return err
	}
	m.Snapshot = d.Bytes32()
	m.HasData = d.Bool()
	return d.Err()
}

// castReply is every member's reply to a cast.
type castReply struct {
	OK bool
	// Code is the typed failure carried across the group boundary (a
	// derr.Code); 0 means success. Err is the human-readable message that
	// rides along — the code, not the string, is what replyErr matches on.
	Code      uint16
	Err       string
	IsReplica bool // this member holds a non-volatile replica and applied the op
	Pair      version.Pair
	Major     uint64
	Outcome   uint8 // token request outcome
	Stable    bool
	Size      int64
	// HadReaders reports that the op revoked outstanding read tokens. The
	// writer must then collect every available member's reply before
	// returning, so no reader can still serve pre-update data under a token
	// it believes it holds after the write completed (Server.waitRevocations).
	HadReaders bool
}

// MarshalWire implements wire.Marshaler.
func (r *castReply) MarshalWire(e *wire.Encoder) {
	e.Bool(r.OK)
	e.Uint16(r.Code)
	e.String(r.Err)
	e.Bool(r.IsReplica)
	r.Pair.MarshalWire(e)
	e.Uint64(r.Major)
	e.Uint8(r.Outcome)
	e.Bool(r.Stable)
	e.Int64(r.Size)
	e.Bool(r.HadReaders)
}

// SizeWire implements wire.Sizer.
func (r *castReply) SizeWire() int {
	return 1 + 2 + wire.SizeString(r.Err) + 1 + r.Pair.SizeWire() + 8 + 1 + 1 + 8 + 1
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *castReply) UnmarshalWire(d *wire.Decoder) error {
	r.OK = d.Bool()
	r.Code = d.Uint16()
	r.Err = d.String()
	r.IsReplica = d.Bool()
	if err := r.Pair.UnmarshalWire(d); err != nil {
		return err
	}
	r.Major = d.Uint64()
	r.Outcome = d.Uint8()
	r.Stable = d.Bool()
	r.Size = d.Int64()
	r.HadReaders = d.Bool()
	return d.Err()
}

// Direct (non-group) message kinds on the transfer channel.
const (
	dmFetchReq uint8 = iota + 1 // pull a chunk of replica data (blast transfer)
	dmFetchResp
	dmReadReq // forwarded read (stability §3.4; non-replica servers, Fig 2)
	dmReadResp
	dmOpenReq // ask a server to join a file group (e.g. as a transfer target)
	dmOpenResp
	// 7 and 8 are reserved: older minors used them for a write forwarded to
	// the token holder. A server drops them unanswered, so such a sender
	// times out and acquires the token itself.
)

// directMsg is the encoding for all direct inter-server messages.
type directMsg struct {
	Kind  uint8
	ReqID uint64
	Seg   SegID
	Major uint64
	Off   int64
	N     int64
	Data  []byte
	Pair  version.Pair
	// Code types a failure across the direct channel (a derr.Code); 0 means
	// success. Err carries the human-readable message.
	Code     uint16
	Err      string
	Size     int64
	Branches []byte
	Stable   bool

	// Incremental transfer (dmFetchReq/dmFetchResp): a fetcher that still
	// holds replica bytes from before its crash sends their pair; if the
	// source's current pair matches, it answers Unchanged with no data and
	// the fetcher revalidates its local copy instead of re-pulling it. The
	// pair is the durable equivalent of the lease-epoch test: it moves iff
	// the replica's observable content moved since the joiner's checkpoint.
	HaveSet   bool
	Have      version.Pair
	Unchanged bool

	// Want (dmFetchReq) is the fetcher's pair: the source answers once its
	// replica reaches it. Older minors send zero, which is served at once.
	Want version.Pair
}

// MarshalWire implements wire.Marshaler.
func (m *directMsg) MarshalWire(e *wire.Encoder) {
	e.Uint8(m.Kind)
	e.Uint64(m.ReqID)
	e.Uint64(uint64(m.Seg))
	e.Uint64(m.Major)
	e.Int64(m.Off)
	e.Int64(m.N)
	e.Bytes32(m.Data)
	m.Pair.MarshalWire(e)
	e.Uint16(m.Code)
	e.String(m.Err)
	e.Int64(m.Size)
	e.Bytes32(m.Branches)
	e.Bool(m.Stable)
	// Reserved, always false (older minors' forwarded writes); then Want.
	e.Bool(false)
	m.Want.MarshalWire(e)
	e.Bool(m.HaveSet)
	m.Have.MarshalWire(e)
	e.Bool(m.Unchanged)
}

// SizeWire implements wire.Sizer.
func (m *directMsg) SizeWire() int {
	return 1 + 8 + 8 + 8 + 8 + 8 +
		wire.SizeBytes32(m.Data) +
		m.Pair.SizeWire() +
		2 + wire.SizeString(m.Err) + 8 +
		wire.SizeBytes32(m.Branches) +
		1 + 1 + m.Want.SizeWire() + // Stable, reserved, Want
		1 + m.Have.SizeWire() + 1
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *directMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Kind = d.Uint8()
	m.ReqID = d.Uint64()
	m.Seg = SegID(d.Uint64())
	m.Major = d.Uint64()
	m.Off = d.Int64()
	m.N = d.Int64()
	m.Data = d.Bytes32()
	if err := m.Pair.UnmarshalWire(d); err != nil {
		return err
	}
	m.Code = d.Uint16()
	m.Err = d.String()
	m.Size = d.Int64()
	m.Branches = d.Bytes32()
	m.Stable = d.Bool()
	d.Bool() // reserved
	if err := m.Want.UnmarshalWire(d); err != nil {
		return err
	}
	m.HaveSet = d.Bool()
	if err := m.Have.UnmarshalWire(d); err != nil {
		return err
	}
	m.Unchanged = d.Bool()
	return d.Err()
}

// majorSnap is the serialized metadata of one major version, used in group
// snapshots (state transfer to joiners) and reconcile casts.
type majorSnap struct {
	Major        uint64
	Holder       simnet.NodeID
	Pair         version.Pair
	Size         int64
	Unstable     bool
	Transferring bool
	TransferTo   simnet.NodeID // encoded after all majors, so older snapshots still decode
	Replicas     []simnet.NodeID
}

// segSnapshot is the full serialized group metadata for one segment.
type segSnapshot struct {
	Params   Params
	Branches []byte
	Majors   []majorSnap
	Deleted  bool
	Epoch    uint64 // lease epoch (see segment.epoch)
}

// MarshalWire implements wire.Marshaler.
func (s *segSnapshot) MarshalWire(e *wire.Encoder) {
	s.Params.MarshalWire(e)
	e.Bytes32(s.Branches)
	e.Bool(s.Deleted)
	e.Uint64(s.Epoch)
	e.Uint32(uint32(len(s.Majors)))
	for i := range s.Majors {
		m := &s.Majors[i]
		e.Uint64(m.Major)
		e.String(string(m.Holder))
		m.Pair.MarshalWire(e)
		e.Int64(m.Size)
		e.Bool(m.Unstable)
		e.Bool(m.Transferring)
		e.Uint32(uint32(len(m.Replicas)))
		for _, r := range m.Replicas {
			e.String(string(r))
		}
	}
	for i := range s.Majors {
		e.String(string(s.Majors[i].TransferTo))
	}
}

// SizeWire implements wire.Sizer.
func (s *segSnapshot) SizeWire() int {
	n := s.Params.SizeWire() + wire.SizeBytes32(s.Branches) + 1 + 8 + 4
	for i := range s.Majors {
		m := &s.Majors[i]
		n += 8 + wire.SizeString(string(m.Holder)) + m.Pair.SizeWire() + 8 + 1 + 1 + 4
		for _, r := range m.Replicas {
			n += wire.SizeString(string(r))
		}
		n += wire.SizeString(string(m.TransferTo))
	}
	return n
}

// UnmarshalWire implements wire.Unmarshaler.
func (s *segSnapshot) UnmarshalWire(d *wire.Decoder) error {
	if err := s.Params.UnmarshalWire(d); err != nil {
		return err
	}
	s.Branches = d.Bytes32()
	s.Deleted = d.Bool()
	s.Epoch = d.Uint64()
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return err
	}
	s.Majors = make([]majorSnap, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		var m majorSnap
		m.Major = d.Uint64()
		m.Holder = simnet.NodeID(d.String())
		if err := m.Pair.UnmarshalWire(d); err != nil {
			return err
		}
		m.Size = d.Int64()
		m.Unstable = d.Bool()
		m.Transferring = d.Bool()
		rn := int(d.Uint32())
		if err := d.Err(); err != nil {
			return err
		}
		for j := 0; j < rn; j++ {
			m.Replicas = append(m.Replicas, simnet.NodeID(d.String()))
		}
		s.Majors = append(s.Majors, m)
	}
	if d.Remaining() > 0 {
		for i := range s.Majors {
			s.Majors[i].TransferTo = simnet.NodeID(d.String())
		}
	}
	return d.Err()
}
