// Package server assembles a complete Deceit server (Figure 6): the segment
// server, the NFS file service envelope, and the Sun RPC endpoint serving
// the NFS, MOUNT and Deceit-control programs. Any NFS client can mount any
// Deceit server and see the whole cell's single name space (§2.1); the
// control program carries the paper's "special RPCs" — set/get file
// parameters, locate replicas, list versions, force replica placement, and
// read the conflict log.
package server

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/derr"
	"repro/internal/envelope"
	"repro/internal/isis"
	"repro/internal/nfsproto"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// GatewayPrefix marks a directory name that mounts a foreign cell: looking
// up "@host:port" in any directory behaves like the paper's
// /priv/global/<machine> access path into another cell (§2.2).
const GatewayPrefix = "@"

// Config describes one Deceit server.
type Config struct {
	// Transport carries all inter-server traffic; typically a simnet
	// endpoint or TCP transport, demultiplexed internally.
	Transport simnet.Transport
	// Peers is the cell membership.
	Peers []simnet.NodeID
	// Store is the server's non-volatile storage.
	Store store.Store
	// ISIS / Core tune the protocol layers; zero values take defaults.
	ISIS isis.Options
	Core core.Options
	// DefaultParams are applied to new files.
	DefaultParams core.Params
	// InitRoot makes this server create the cell root if it cannot find
	// one. Enable it on exactly one server when bootstrapping a cell.
	InitRoot bool
	// OpTimeout bounds each client-visible NFS operation.
	OpTimeout time.Duration
	// MaxInflight bounds concurrently-executing NFS operations. Beyond the
	// bound the server sheds the request immediately with a typed
	// Overloaded error (carrying a retry-after hint) rather than queueing
	// work it cannot finish within OpTimeout. Zero means unlimited.
	MaxInflight int
}

// Server is one running Deceit server.
type Server struct {
	cfg   Config
	demux *simnet.Demux
	proc  *isis.Process
	core  *core.Server
	env   *envelope.Envelope
	rpc   *sunrpc.Server
	gw    *gateway
	addr  string

	inflight    atomic.Int64
	maxInflight atomic.Int64
	sheds       atomic.Uint64

	// ctx parents every operation's context. Close cancels it first, so an
	// in-flight handler stops waiting on the layers below and returns
	// before they shut down.
	ctx  context.Context
	stop context.CancelFunc
}

// New starts the protocol stack. Call ServeNFS to expose the RPC endpoint,
// and Close to shut down.
func New(cfg Config) (*Server, error) {
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.DefaultParams == (core.Params{}) {
		cfg.DefaultParams = core.DefaultParams()
	}
	demux := simnet.NewDemux(cfg.Transport)
	proc := isis.NewProcess(demux.Channel(0), cfg.Peers, cfg.ISIS)
	cs := core.NewServer(proc, demux.Channel(1), cfg.Store, cfg.Core)
	env := envelope.New(cs, envelope.Options{DefaultParams: cfg.DefaultParams})
	s := &Server{cfg: cfg, demux: demux, proc: proc, core: cs, env: env, gw: newGateway()}
	s.ctx, s.stop = context.WithCancel(context.Background())
	s.maxInflight.Store(int64(cfg.MaxInflight))

	if cfg.InitRoot {
		ctx, cancel := s.opCtx()
		defer cancel()
		if err := env.InitRoot(ctx); err != nil {
			s.Close()
			return nil, derr.Wrap(derr.CodeInternal, "server: init root", err)
		}
	}
	return s, nil
}

// Core exposes the segment server (examples and tests use it directly).
func (s *Server) Core() *core.Server { return s.core }

// Envelope exposes the NFS file service layer.
func (s *Server) Envelope() *envelope.Envelope { return s.env }

// Proc exposes the ISIS process.
func (s *Server) Proc() *isis.Process { return s.proc }

// RPC exposes the SunRPC endpoint once ServeNFS has been called — the fault
// injection matrix installs its failpoints there.
func (s *Server) RPC() *sunrpc.Server { return s.rpc }

// ID returns the server's cell-internal identity.
func (s *Server) ID() simnet.NodeID { return s.proc.ID() }

// Addr returns the NFS endpoint address once ServeNFS has been called.
func (s *Server) Addr() string { return s.addr }

// ServeNFS starts the RPC endpoint on addr (port 0 picks a free port) and
// returns the bound address.
func (s *Server) ServeNFS(addr string) (string, error) {
	rpc := sunrpc.NewServer()
	rpc.Register(nfsproto.NFSProgram, nfsproto.NFSVersion, s.handleNFS)
	rpc.Register(nfsproto.MountProgram, nfsproto.MountVersion, s.handleMount)
	rpc.Register(CtlProgram, CtlVersion, s.handleCtl)
	bound, err := rpc.Listen(addr)
	if err != nil {
		return "", err
	}
	s.rpc = rpc
	s.addr = bound
	return bound, nil
}

// Close shuts the server down. In-flight operations are cancelled and
// have returned by the time the layers under them close, so no handler
// touches the store after Close returns.
func (s *Server) Close() {
	s.stop()
	s.gw.close()
	if s.rpc != nil {
		_ = s.rpc.Close()
	}
	s.core.Close()
	s.proc.Close()
}

func (s *Server) opCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(s.ctx, s.cfg.OpTimeout)
}

// ---------------------------------------------------- admission control ----

// shedRetryAfter is the backoff hint attached to Overloaded replies: long
// enough that a retry has a chance of landing after the burst drains, short
// enough that clients converge well within an op deadline.
const shedRetryAfter = 2 * time.Millisecond

// SetMaxInflight adjusts the admission bound at runtime (0 = unlimited).
func (s *Server) SetMaxInflight(n int) { s.maxInflight.Store(int64(n)) }

// ShedCount reports how many NFS requests were refused by admission control.
func (s *Server) ShedCount() uint64 { return s.sheds.Load() }

// admit reserves an execution slot; callers must release() iff it succeeds.
func (s *Server) admit() bool {
	n := s.inflight.Add(1)
	if lim := s.maxInflight.Load(); lim > 0 && n > lim {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Server) release() { s.inflight.Add(-1) }

// shedReplyInto encodes the correctly-shaped error reply for proc: the
// legacy status word degrades to ErrIO, and the derr trailer carries the
// typed Overloaded code plus a retry-after hint.
func shedReplyInto(e *xdr.Encoder, proc uint32) {
	err := derr.New(derr.CodeOverloaded, "server: too many in-flight requests").
		WithRetryAfter(shedRetryAfter)
	st := nfsproto.StatusOf(err)
	switch proc {
	case nfsproto.ProcGetattr, nfsproto.ProcSetattr, nfsproto.ProcWrite:
		(&nfsproto.AttrStat{Status: st}).MarshalXDR(e)
	case nfsproto.ProcLookup, nfsproto.ProcCreate, nfsproto.ProcMkdir:
		(&nfsproto.DirOpRes{Status: st}).MarshalXDR(e)
	case nfsproto.ProcReadlink:
		(&nfsproto.ReadlinkRes{Status: st}).MarshalXDR(e)
	case nfsproto.ProcRead:
		(&nfsproto.ReadRes{Status: st}).MarshalXDR(e)
	case nfsproto.ProcReaddir:
		(&nfsproto.ReaddirRes{Status: st}).MarshalXDR(e)
	case nfsproto.ProcStatfs:
		(&nfsproto.StatfsRes{Status: st}).MarshalXDR(e)
	default: // Remove, Rmdir, Rename, Link, Symlink reply with a bare status.
		e.Uint32(uint32(st))
	}
	derr.AppendTrailer(e, err)
}

// errInto appends the derr trailer to the reply being built when the
// operation failed, so the typed code survives the lossy NFS status
// projection.
func errInto(e *xdr.Encoder, err error) {
	if err != nil {
		derr.AppendTrailer(e, err)
	}
}

// ------------------------------------------------------------- MOUNT ----

func (s *Server) handleMount(proc uint32, cred sunrpc.Cred, args []byte, reply *xdr.Encoder) sunrpc.AcceptStat {
	switch proc {
	case nfsproto.MountProcNull:
		return sunrpc.Success
	case nfsproto.MountProcMnt:
		d := xdr.NewDecoder(args)
		_ = d.String() // dirpath; a Deceit server exports exactly one tree
		if d.Err() != nil {
			return sunrpc.GarbageArgs
		}
		(&nfsproto.FHStatus{Status: 0, Handle: s.env.Root()}).MarshalXDR(reply)
		return sunrpc.Success
	case nfsproto.MountProcUmnt, nfsproto.MountProcUmntAll:
		return sunrpc.Success
	case nfsproto.MountProcExport, nfsproto.MountProcDump:
		reply.Bool(false) // empty list terminator
		return sunrpc.Success
	default:
		return sunrpc.ProcUnavail
	}
}

// --------------------------------------------------------------- NFS ----

func (s *Server) handleNFS(proc uint32, cred sunrpc.Cred, args []byte, reply *xdr.Encoder) sunrpc.AcceptStat {
	if proc == nfsproto.ProcNull {
		return sunrpc.Success
	}
	if !s.admit() {
		s.sheds.Add(1)
		shedReplyInto(reply, proc)
		return sunrpc.Success
	}
	defer s.release()
	ctx, cancel := s.opCtx()
	defer cancel()
	switch proc {
	case nfsproto.ProcGetattr:
		var h nfsproto.Handle
		if err := xdr.Unmarshal(args, &h); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(h) {
			return s.gw.forward(proc, args, h, reply)
		}
		// The lease is captured before the attributes are read, so a
		// concurrent write can only make the stamp too old (a spurious
		// revalidation miss), never too new (a masked update).
		lease := s.lease(ctx, h)
		attr, err := s.env.Getattr(ctx, h)
		(&nfsproto.AttrStat{Status: nfsproto.StatusOf(err), Attr: attr}).MarshalXDR(reply)
		if err == nil {
			nfsproto.AppendLease(reply, lease)
		} else {
			derr.AppendTrailer(reply, err)
		}
		return sunrpc.Success

	case nfsproto.ProcSetattr:
		var a nfsproto.SAttrArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.File) {
			return s.gw.forward(proc, args, a.File, reply)
		}
		attr, err := s.env.Setattr(ctx, a.File, a.Attr)
		(&nfsproto.AttrStat{Status: nfsproto.StatusOf(err), Attr: attr}).MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcLookup:
		var a nfsproto.DirOpArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		// Inter-cell access: "@host:port" mounts the foreign cell rooted
		// at that server (§2.2's global root directory).
		if strings.HasPrefix(a.Name, GatewayPrefix) && !s.gw.isGatewayHandle(a.Dir) {
			s.gw.mount(a.Name[len(GatewayPrefix):]).MarshalXDR(reply)
			return sunrpc.Success
		}
		if s.gw.isGatewayHandle(a.Dir) {
			return s.gw.forward(proc, args, a.Dir, reply)
		}
		// Lookup replies carry no lease trailer: the child handle is only
		// known after its attributes were read, so a stamp taken here could
		// be newer than the attributes and mask a concurrent write forever.
		// The agent populates its attribute cache from Getattr and Read
		// replies, whose stamps are captured before the data.
		fh, attr, err := s.env.Lookup(ctx, a.Dir, a.Name)
		(&nfsproto.DirOpRes{Status: nfsproto.StatusOf(err), File: fh, Attr: attr}).MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcReadlink:
		var h nfsproto.Handle
		if err := xdr.Unmarshal(args, &h); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(h) {
			return s.gw.forward(proc, args, h, reply)
		}
		path, err := s.env.Readlink(ctx, h)
		(&nfsproto.ReadlinkRes{Status: nfsproto.StatusOf(err), Path: path}).MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcRead:
		var a nfsproto.ReadArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.File) {
			return s.gw.forward(proc, args, a.File, reply)
		}
		// Lease before data: see ProcGetattr.
		lease := s.lease(ctx, a.File)
		data, attr, err := s.env.Read(ctx, a.File, a.Offset, a.Count)
		(&nfsproto.ReadRes{Status: nfsproto.StatusOf(err), Attr: attr, Data: data}).MarshalXDR(reply)
		if err == nil {
			nfsproto.AppendLease(reply, lease)
		} else {
			derr.AppendTrailer(reply, err)
		}
		return sunrpc.Success

	case nfsproto.ProcWrite:
		var a nfsproto.WriteArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.File) {
			return s.gw.forward(proc, args, a.File, reply)
		}
		attr, err := s.env.Write(ctx, a.File, a.Offset, a.Data)
		(&nfsproto.AttrStat{Status: nfsproto.StatusOf(err), Attr: attr}).MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcCreate, nfsproto.ProcMkdir:
		var a nfsproto.CreateArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.Where.Dir) {
			return s.gw.forward(proc, args, a.Where.Dir, reply)
		}
		var fh nfsproto.Handle
		var attr nfsproto.FAttr
		var err error
		if proc == nfsproto.ProcCreate {
			fh, attr, err = s.env.Create(ctx, a.Where.Dir, a.Where.Name, a.Attr)
		} else {
			fh, attr, err = s.env.Mkdir(ctx, a.Where.Dir, a.Where.Name, a.Attr)
		}
		(&nfsproto.DirOpRes{Status: nfsproto.StatusOf(err), File: fh, Attr: attr}).MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcRemove, nfsproto.ProcRmdir:
		var a nfsproto.DirOpArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.Dir) {
			return s.gw.forward(proc, args, a.Dir, reply)
		}
		var err error
		if proc == nfsproto.ProcRemove {
			err = s.env.Remove(ctx, a.Dir, a.Name)
		} else {
			err = s.env.Rmdir(ctx, a.Dir, a.Name)
		}
		statusInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcRename:
		var a nfsproto.RenameArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.From.Dir) {
			return s.gw.forward(proc, args, a.From.Dir, reply)
		}
		err := s.env.Rename(ctx, a.From.Dir, a.From.Name, a.To.Dir, a.To.Name)
		statusInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcLink:
		var a nfsproto.LinkArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.From) {
			return s.gw.forward(proc, args, a.From, reply)
		}
		err := s.env.Link(ctx, a.From, a.To.Dir, a.To.Name)
		statusInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcSymlink:
		var a nfsproto.SymlinkArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.From.Dir) {
			return s.gw.forward(proc, args, a.From.Dir, reply)
		}
		err := s.env.Symlink(ctx, a.From.Dir, a.From.Name, a.To, a.Attr)
		statusInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcReaddir:
		var a nfsproto.ReaddirArgs
		if err := xdr.Unmarshal(args, &a); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(a.Dir) {
			return s.gw.forward(proc, args, a.Dir, reply)
		}
		res, err := s.env.Readdir(ctx, a.Dir, a.Cookie, a.Count)
		res.MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcStatfs:
		var h nfsproto.Handle
		if err := xdr.Unmarshal(args, &h); err != nil {
			return sunrpc.GarbageArgs
		}
		if s.gw.isGatewayHandle(h) {
			return s.gw.forward(proc, args, h, reply)
		}
		res, err := s.env.Statfs(ctx, h)
		res.MarshalXDR(reply)
		errInto(reply, err)
		return sunrpc.Success

	case nfsproto.ProcRoot, nfsproto.ProcWritecache:
		return sunrpc.ProcUnavail
	default:
		return sunrpc.ProcUnavail
	}
}

// lease fetches the lease stamp for h, degrading to an uncacheable stamp on
// any failure.
func (s *Server) lease(ctx context.Context, h nfsproto.Handle) nfsproto.Lease {
	epoch, ok := s.env.Lease(ctx, h)
	return nfsproto.Lease{Epoch: epoch, Valid: ok}
}

// statusInto encodes a bare NFS status word, plus the derr trailer on
// failure so the typed code survives the lossy status projection.
func statusInto(e *xdr.Encoder, err error) {
	e.Uint32(uint32(nfsproto.StatusOf(err)))
	if err != nil {
		derr.AppendTrailer(e, err)
	}
}
