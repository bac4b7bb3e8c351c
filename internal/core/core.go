// Package core implements the Deceit segment server, the paper's primary
// contribution (§3, §4, §5.1). The segment server provides "a simple, flat,
// reliable distributed file service with no user level security or user
// specified names": segments are arrays of bytes carrying per-segment
// semantic parameters, a version number pair, an ISIS process group (the
// file group), and replication state.
//
// The five-call interface of §5.1 — create, delete, read, write, setparam —
// is the narrow waist between the NFS envelope above and the replication
// machinery below. The package additionally exposes the paper's special
// commands: locating replicas, forcing replica creation/deletion, listing
// versions, and inspecting version pairs.
//
// All group-wide metadata (token location, replica sets, stability marks,
// parameters) is maintained as a replicated state machine driven by totally
// ordered ISIS casts, so every file-group member deterministically agrees on
// it. Bulk replica data moves outside the group on a direct transfer channel
// (the paper's "blast" TCP transfer, §3.1).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/derr"
	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/version"
	"repro/internal/wire"
)

// SegID uniquely identifies a segment (file). It is the stable component of
// an NFS file handle and remains valid "as long as a replica of the file
// exists" (§2.1).
type SegID uint64

func (id SegID) String() string { return fmt.Sprintf("seg:%016x", uint64(id)) }

// groupName returns the ISIS group name for a segment's file group.
func (id SegID) groupName() string { return id.String() }

// Availability is the write availability level (§4, parameter 5),
// controlling when a lost write-token may be regenerated.
type Availability uint8

// Availability levels.
const (
	// AvailLow never regenerates tokens: write access may be lost for long
	// periods, but multiple versions can never be created.
	AvailLow Availability = iota
	// AvailMedium regenerates a token only when a majority of the replicas
	// is reachable; versions can branch only during transitional periods.
	// This is the default.
	AvailMedium
	// AvailHigh regenerates a token whenever one is needed; partitions are
	// likely to produce multiple file versions.
	AvailHigh
)

func (a Availability) String() string {
	switch a {
	case AvailLow:
		return "low"
	case AvailMedium:
		return "medium"
	case AvailHigh:
		return "high"
	default:
		return "invalid"
	}
}

// Params are the per-file semantic parameters of §4. The zero value is not
// meaningful; use DefaultParams.
type Params struct {
	// MinReplicas is the minimum replica level: Deceit maintains at least
	// this many non-volatile replicas while enough servers are available.
	MinReplicas int
	// WriteSafety is the number of replica servers that must reply to an
	// update before a write returns. 0 produces asynchronous unsafe writes;
	// a value >= the number of available replicas produces fully
	// synchronous writes.
	WriteSafety int
	// Stability enables stability notification, which provides global
	// one-copy serializability and real-time update propagation at some
	// cost (§3.4).
	Stability bool
	// Migration makes a server that forwards client requests for this file
	// create a local replica in the background (§3.1 method 4).
	Migration bool
	// Avail is the write availability level.
	Avail Availability
	// MaxReplicas bounds the total replica count; surplus replicas are
	// deleted in least-recently-used order when an update occurs rather
	// than being updated (§3.1). 0 means unbounded.
	MaxReplicas int
	// HotRead marks a frequently-read, rarely-written file — §7's "special
	// file modes" future work for files "such as the root directory [that]
	// will be accessed very frequently by all servers". Every server that
	// touches the file grows a local replica (even with Migration off), and
	// writes wait for every available replica, so steady-state reads are
	// always local. Writes become proportionally more expensive; the mode
	// is for read-mostly files.
	HotRead bool
}

// DefaultParams returns the paper's defaults (§4): replica level 1, write
// safety 1, stability notification on, migration off, medium availability.
func DefaultParams() Params {
	return Params{
		MinReplicas: 1,
		WriteSafety: 1,
		Stability:   true,
		Migration:   false,
		Avail:       AvailMedium,
	}
}

// MarshalWire implements wire.Marshaler.
func (p *Params) MarshalWire(e *wire.Encoder) {
	e.Int(p.MinReplicas)
	e.Int(p.WriteSafety)
	e.Bool(p.Stability)
	e.Bool(p.Migration)
	e.Uint8(uint8(p.Avail))
	e.Int(p.MaxReplicas)
	e.Bool(p.HotRead)
}

// SizeWire implements wire.Sizer.
func (p *Params) SizeWire() int { return 8 + 8 + 1 + 1 + 1 + 8 + 1 }

// UnmarshalWire implements wire.Unmarshaler.
func (p *Params) UnmarshalWire(d *wire.Decoder) error {
	p.MinReplicas = d.Int()
	p.WriteSafety = d.Int()
	p.Stability = d.Bool()
	p.Migration = d.Bool()
	p.Avail = Availability(d.Uint8())
	p.MaxReplicas = d.Int()
	p.HotRead = d.Bool()
	return d.Err()
}

// WriteReq describes one write call (§5.1: "Write modifies a segment by
// replacing, appending, or truncating data in the segment").
type WriteReq struct {
	// Major selects the version to write; 0 selects the current version.
	Major uint64
	// Off is the byte offset of the write.
	Off int64
	// Data is the bytes to place at Off.
	Data []byte
	// Truncate, when set, makes the segment exactly Off+len(Data) bytes
	// long; otherwise the segment is extended as needed and never shrunk.
	Truncate bool
	// Expect, if non-zero, makes the write conditional: it succeeds only if
	// the segment's version pair still equals Expect — the optimistic
	// concurrency mechanism of §5.1. ErrVersionConflict is returned
	// otherwise.
	Expect version.Pair
}

// ReplicaInfo describes one replica's location and state.
type ReplicaInfo struct {
	Server simnet.NodeID
	Pair   version.Pair
	Stable bool
}

// VersionInfo describes one major version of a segment.
type VersionInfo struct {
	Major    uint64
	Pair     version.Pair
	Holder   simnet.NodeID
	Unstable bool
	Disabled bool
	Replicas []simnet.NodeID
	Size     int64
}

// SegInfo is the result of Stat: everything the special commands expose.
type SegInfo struct {
	ID       SegID
	Params   Params
	Current  uint64 // major selected for unqualified access
	Versions []VersionInfo
}

// Conflict records the detection of incomparable file versions after a
// partition (§3.6: "both of the incomparable versions of the file are kept,
// and a notification is logged into a well known file").
type Conflict struct {
	Seg    SegID
	MajorA uint64
	PairA  version.Pair
	MajorB uint64
	PairB  version.Pair
	When   time.Time
}

func (c Conflict) String() string {
	return fmt.Sprintf("%v: version %d%v and version %d%v are incomparable",
		c.Seg, c.MajorA, c.PairA, c.MajorB, c.PairB)
}

// Errors returned by segment operations. Each sentinel is a typed derr
// value, so errors.Is keeps working at every call site while the code —
// not the pointer — is the identity that survives the wire: a CodeBusy
// decoded from a peer's cast reply matches ErrBusy.
var (
	// ErrNotFound reports an unknown segment or version. Its category is
	// Gone, not NotFound: a segment handle that resolves to nothing is
	// definitively dead (NFS ErrStale), unlike a directory name lookup miss
	// (the envelope's errNoEnt), which is an ordinary NotFound.
	ErrNotFound = derr.New(derr.CodeGone, "core: no such segment")
	// ErrVersionConflict reports a conditional write whose expected version
	// pair no longer matches (§5.1's aborted serial transaction).
	ErrVersionConflict = derr.New(derr.CodeVersionConflict, "core: version pair conflict")
	// ErrWriteUnavailable reports that no write token is available and the
	// availability level forbids generating one (§4).
	ErrWriteUnavailable = derr.New(derr.CodeWriteUnavailable, "core: write token unavailable")
	// ErrBusy reports a transient condition (replica transfer in progress,
	// token movement); the operation should be retried.
	ErrBusy = derr.New(derr.CodeBusy, "core: segment busy; retry")
	// ErrDeleted reports an operation on a deleted segment.
	ErrDeleted = derr.New(derr.CodeDeleted, "core: segment deleted")
)

// IsRetryable reports whether err is a transient condition that a caller
// should retry: the segment is busy (token movement, replica transfer), or
// its group dissolved for a partition-heal rejoin that is still in flight.
// Server's own operations retry these internally; callers driving the
// narrow five-call interface from above (the envelope, CLIs) use this
// predicate instead of enumerating sentinel errors.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrBusy) || errors.Is(err, isis.ErrDissolved)
}

// IsGone reports whether err means the segment (or the requested version of
// it) no longer exists anywhere: unknown or deleted. Gone errors are
// definitive — retrying cannot help — and map to ErrStale at the NFS layer.
func IsGone(err error) bool {
	return errors.Is(err, ErrNotFound) || errors.Is(err, ErrDeleted)
}
