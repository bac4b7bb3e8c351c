// Package agent implements the Deceit client agent of §5.3: "the client
// software which interfaces between the user process and the NFS protocol."
// This is the paper's planned auxiliary user-process agent with full
// functionality:
//
//   - caching: attributes and file data ranges are cached with a lease
//     epoch stamped by the server, reused only while a cheap revalidation
//     (CtlLease) confirms the epoch, and dropped on mismatch. There is no
//     time-based expiry: coherence comes from the epoch contract, so a
//     write through any agent is visible to every other agent's next read
//     — not after some staleness window;
//   - failover: "when one server fails, the agent must select another to
//     continue operation" — Deceit servers are interchangeable and Deceit
//     file handles are location-independent, so the agent simply re-issues
//     the call against the next server on its list;
//   - access shortcut: the agent can ask the control program where a
//     file's replicas live and talk to a replica holder directly instead
//     of paying the forwarding hop (Figure 8's third configuration).
package agent

import (
	"context"
	"errors"
	"path"
	"strings"
	"sync"
	"time"

	"repro/internal/derr"
	"repro/internal/nfsproto"
	"repro/internal/server"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// NFSError wraps a non-OK NFS status from a server that sent no typed
// error trailer (a stock NFS server, or a pre-taxonomy Deceit server).
type NFSError struct {
	Status nfsproto.Status
}

func (e *NFSError) Error() string { return "agent: " + e.Status.String() }

// IsNotExist reports whether err says the name does not exist.
func IsNotExist(err error) bool {
	if _, ok := derr.AsError(err); ok {
		return derr.CodeOf(err) == derr.CodeNotFound
	}
	var ne *NFSError
	return errors.As(err, &ne) && ne.Status == nfsproto.ErrNoEnt
}

// IsTransient reports whether err is worth retrying. Typed errors — the
// derr trailer Deceit servers append to failed replies — answer from the
// taxonomy's retryability table, so Busy, Rejoining, Overloaded and
// Timeout retry while NotFound, Gone and Corrupt fail fast. A bare
// NFSERR_IO without a trailer stays retryable for compatibility: that is
// the only shape a stock server gives a transient condition.
func IsTransient(err error) bool {
	if _, ok := derr.AsError(err); ok {
		return derr.IsRetryable(err)
	}
	var ne *NFSError
	return errors.As(err, &ne) && ne.Status == nfsproto.ErrIO
}

func statusErr(st nfsproto.Status) error {
	if st == nfsproto.OK {
		return nil
	}
	return &NFSError{Status: st}
}

// replyErr converts a non-OK reply into the typed error carried by its derr
// trailer, falling back to the status-only NFSError when the server sent
// none. The decoder must be positioned just past the reply body.
func replyErr(d *xdr.Decoder, st nfsproto.Status) error {
	if st == nfsproto.OK {
		return nil
	}
	if e, ok := derr.TrailingError(d); ok {
		return e
	}
	return &NFSError{Status: st}
}

// maxCachedFile bounds the size of a data range kept in the cache.
const maxCachedFile = 1 << 20

// Options tunes the agent.
type Options struct {
	// Cache enables the lease-backed attribute and data caches; off is
	// Figure 8's thinnest configuration. Cached entries carry the server's
	// lease epoch and are reused only after a revalidation call confirms the
	// epoch still matches — never on the strength of elapsed time.
	Cache bool
	// UID/GID are sent as AUTH_UNIX credentials.
	UID, GID uint32
	// Machine is the client's name in credentials.
	Machine string
	// CallTimeout bounds each RPC round trip; past it the call is abandoned
	// and the agent fails over to the next server. It is how the agent
	// survives a server that accepted a call but never replies. Zero means
	// wait forever (the pre-deadline behavior).
	CallTimeout time.Duration
	// Retry, when set, re-issues operations whose typed error is retryable
	// (per derr's taxonomy, or the policy's own RetryIf) with jittered
	// backoff, honoring the policy's client-wide budget. Nil means the
	// caller handles retries.
	Retry *derr.Policy
}

func (o *Options) fill() {
	if o.Machine == "" {
		o.Machine = "deceit-agent"
	}
}

// Agent is a user-space Deceit/NFS client.
type Agent struct {
	opts  Options
	addrs []string

	mu      sync.Mutex
	cur     int
	cli     *sunrpc.Client
	root    nfsproto.Handle
	attrs   map[nfsproto.Handle]attrEntry
	data    map[nfsproto.Handle]map[uint32]rangeEntry // per-(handle, offset) ranges
	servers map[string]*sunrpc.Client                 // shortcut connections by server id
	closed  bool

	// Stats for experiments.
	Calls         uint64
	CacheHits     uint64
	Revalidations uint64 // CtlLease round trips issued for cache hits
	Failovers     uint64
}

// attrEntry is one cached fattr, valid while the file's lease epoch matches.
type attrEntry struct {
	attr  nfsproto.FAttr
	epoch uint64
}

// rangeEntry is one cached read result: the bytes the server returned for a
// (offset, count) read, stamped with the lease epoch they were served under.
// Sequential readers hit range by range; a write to the handle drops every
// range at once.
type rangeEntry struct {
	data  []byte
	count uint32 // the read size the entry answers up to
	epoch uint64
}

// Mount connects to the first reachable server in addrs and returns an
// agent rooted at the cell's name tree. The remaining addresses are the
// failover list.
func Mount(addrs []string, opts Options) (*Agent, error) {
	opts.fill()
	a := &Agent{
		opts:    opts,
		addrs:   append([]string(nil), addrs...),
		attrs:   make(map[nfsproto.Handle]attrEntry),
		data:    make(map[nfsproto.Handle]map[uint32]rangeEntry),
		servers: make(map[string]*sunrpc.Client),
	}
	if err := a.connectLocked(0); err != nil {
		return nil, err
	}
	return a, nil
}

// connectLocked dials addrs[i] and refreshes the root handle. a.mu may be
// held by the caller or not; the method itself takes it.
func (a *Agent) connectLocked(start int) error {
	var lastErr error = derr.New(derr.CodeInvalid, "agent: no servers configured")
	for off := 0; off < len(a.addrs); off++ {
		i := (start + off) % len(a.addrs)
		cli, err := sunrpc.Dial(a.addrs[i])
		if err != nil {
			lastErr = err
			continue
		}
		cli.SetUnixCred(sunrpc.UnixCred{
			MachineName: a.opts.Machine, UID: a.opts.UID, GID: a.opts.GID,
		})
		e := xdr.NewEncoder(nil)
		e.String("/")
		raw, err := cli.Call(nfsproto.MountProgram, nfsproto.MountVersion, nfsproto.MountProcMnt, e.Bytes())
		if err != nil {
			cli.Close()
			lastErr = err
			continue
		}
		var fhs nfsproto.FHStatus
		if err := xdr.Unmarshal(raw, &fhs); err != nil || fhs.Status != 0 {
			cli.Close()
			lastErr = derr.New(derr.CodeUnreachable, "agent: mount failed on "+a.addrs[i])
			continue
		}
		a.mu.Lock()
		if a.cli != nil {
			a.cli.Close()
		}
		a.cli = cli
		a.cur = i
		a.root = fhs.Handle
		a.mu.Unlock()
		return nil
	}
	return lastErr
}

// Close disconnects the agent.
func (a *Agent) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	if a.cli != nil {
		a.cli.Close()
	}
	for _, c := range a.servers {
		c.Close()
	}
}

// Root returns the root directory handle.
func (a *Agent) Root() nfsproto.Handle {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.root
}

// call performs one NFS RPC with transparent failover: a transport-level
// failure rotates to the next server and re-issues the call. Deceit handles
// stay valid across servers, so no state needs rebuilding (§2.1: "when one
// machine fails, Deceit clients can connect to another machine and continue
// operation").
func (a *Agent) call(prog, vers, proc uint32, args []byte) ([]byte, error) {
	for attempt := 0; attempt <= len(a.addrs); attempt++ {
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			return nil, sunrpc.ErrClosed
		}
		cli := a.cli
		cur := a.cur
		a.Calls++
		a.mu.Unlock()

		raw, err := a.callOnce(cli, prog, vers, proc, args)
		if err == nil {
			return raw, nil
		}
		var rpcErr *sunrpc.RPCError
		if errors.As(err, &rpcErr) {
			// The server answered; not a connectivity issue. SYSTEM_ERR is
			// an internal server failure, anything else a protocol misuse —
			// neither is retryable.
			code := derr.CodeInvalid
			if rpcErr.Stat == sunrpc.SystemErr {
				code = derr.CodeInternal
			}
			return nil, derr.Wrap(code, "agent: rpc", err)
		}
		a.mu.Lock()
		a.Failovers++
		a.mu.Unlock()
		if cerr := a.connectLocked(cur + 1); cerr != nil {
			return nil, derr.Wrap(derr.CodeUnreachable, "agent: reconnect", cerr)
		}
	}
	return nil, derr.New(derr.CodeUnreachable, "agent: all servers unreachable")
}

// callOnce issues one RPC bounded by the configured call timeout.
func (a *Agent) callOnce(cli *sunrpc.Client, prog, vers, proc uint32, args []byte) ([]byte, error) {
	ctx := context.Background()
	if a.opts.CallTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.opts.CallTimeout)
		defer cancel()
	}
	return cli.CallCtx(ctx, prog, vers, proc, args)
}

// doRetry runs fn under the agent's retry policy when one is configured.
func (a *Agent) doRetry(fn func() error) error {
	if a.opts.Retry == nil {
		return fn()
	}
	return a.opts.Retry.Do(context.Background(), func(context.Context) error { return fn() })
}

// lease issues the cheap revalidation RPC, sending the epoch the cache
// entry is stamped with. While the epochs match the server answers from
// group metadata alone; on a mismatch (or an invalid lease) the reply also
// carries the file's current attributes, so an attribute-cache miss costs
// one round trip, not two.
func (a *Agent) lease(h nfsproto.Handle, epoch uint64) (nfsproto.Lease, *nfsproto.FAttr, error) {
	a.mu.Lock()
	a.Revalidations++
	a.mu.Unlock()
	la := server.CtlLeaseArgs{File: h, Epoch: epoch}
	raw, err := a.call(server.CtlProgram, server.CtlVersion, server.CtlLease, xdr.Marshal(&la))
	if err != nil {
		return nfsproto.Lease{}, nil, err
	}
	d := xdr.NewDecoder(raw)
	st := nfsproto.Status(d.Uint32())
	l := nfsproto.Lease{Epoch: d.Uint64(), Valid: d.Bool()}
	var attr *nfsproto.FAttr
	if d.Bool() {
		attr = new(nfsproto.FAttr)
		if err := attr.UnmarshalXDR(d); err != nil {
			return nfsproto.Lease{}, nil, err
		}
	}
	if err := d.Err(); err != nil {
		return nfsproto.Lease{}, nil, err
	}
	if st != nfsproto.OK {
		return nfsproto.Lease{}, nil, statusErr(st)
	}
	return l, attr, nil
}

// revalidate reports whether a cache entry stamped with epoch may still be
// served: the server's lease epoch matches and the lease is valid. Any
// failure counts as a mismatch — the caller falls back to a full fetch. On
// a mismatch, fresh attributes from the reply (if any) are handed back so
// the caller can repair the attribute cache without another round trip.
func (a *Agent) revalidate(h nfsproto.Handle, epoch uint64) (bool, nfsproto.Lease, *nfsproto.FAttr) {
	l, attr, err := a.lease(h, epoch)
	if err != nil {
		return false, nfsproto.Lease{}, nil
	}
	return l.Valid && l.Epoch == epoch, l, attr
}

func (a *Agent) cachedAttr(h nfsproto.Handle) (attrEntry, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ent, ok := a.attrs[h]
	return ent, ok
}

func (a *Agent) cachePutAttr(h nfsproto.Handle, attr nfsproto.FAttr, l nfsproto.Lease, ok bool) {
	if !a.opts.Cache || !ok || !l.Valid {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attrs[h] = attrEntry{attr: attr, epoch: l.Epoch}
}

// invalidate drops the attribute entry and every cached data range for h.
func (a *Agent) invalidate(h nfsproto.Handle) {
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.attrs, h)
	delete(a.data, h)
}

// Getattr fetches attributes, honoring the lease-backed attribute cache.
func (a *Agent) Getattr(h nfsproto.Handle) (nfsproto.FAttr, error) {
	if a.opts.Cache {
		if ent, ok := a.cachedAttr(h); ok {
			fresh, l, attr := a.revalidate(h, ent.epoch)
			if fresh {
				a.mu.Lock()
				a.CacheHits++
				a.mu.Unlock()
				return ent.attr, nil
			}
			a.invalidate(h)
			if attr != nil {
				// The mismatch reply carried current attributes: repair the
				// cache and answer in this single round trip.
				a.cachePutAttr(h, *attr, l, true)
				return *attr, nil
			}
		}
	}
	var out nfsproto.FAttr
	err := a.doRetry(func() error {
		raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, nfsproto.ProcGetattr, xdr.Marshal(&h))
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		var res nfsproto.AttrStat
		if err := res.UnmarshalXDR(d); err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return replyErr(d, res.Status)
		}
		l, lok := nfsproto.TrailingLease(d)
		a.cachePutAttr(h, res.Attr, l, lok)
		out = res.Attr
		return nil
	})
	return out, err
}

// Setattr updates attributes.
func (a *Agent) Setattr(h nfsproto.Handle, sa nfsproto.SAttr) (nfsproto.FAttr, error) {
	a.invalidate(h)
	args := nfsproto.SAttrArgs{File: h, Attr: sa}
	var out nfsproto.FAttr
	err := a.doRetry(func() error {
		attr, err := a.attrCall(nfsproto.ProcSetattr, xdr.Marshal(&args))
		if err != nil {
			return err
		}
		out = attr
		return nil
	})
	if err != nil {
		return nfsproto.FAttr{}, err
	}
	a.invalidate(h)
	return out, nil
}

// attrCall issues one RPC whose reply is an attrstat.
func (a *Agent) attrCall(proc uint32, args []byte) (nfsproto.FAttr, error) {
	raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, proc, args)
	if err != nil {
		return nfsproto.FAttr{}, err
	}
	d := xdr.NewDecoder(raw)
	var res nfsproto.AttrStat
	if err := res.UnmarshalXDR(d); err != nil {
		return nfsproto.FAttr{}, err
	}
	if res.Status != nfsproto.OK {
		return nfsproto.FAttr{}, replyErr(d, res.Status)
	}
	return res.Attr, nil
}

// Lookup resolves name within dir.
func (a *Agent) Lookup(dir nfsproto.Handle, name string) (nfsproto.Handle, nfsproto.FAttr, error) {
	args := nfsproto.DirOpArgs{Dir: dir, Name: name}
	// Lookup replies carry no lease (the server cannot stamp the child
	// before reading its attributes); the cache fills from Getattr/Read.
	return a.dirOpCall(nfsproto.ProcLookup, xdr.Marshal(&args))
}

// cachedRange serves a read from the per-range data cache: an entry keyed by
// the exact offset answers any request up to the read size it was fetched
// with (or any size at all if it already reached end-of-file).
func (a *Agent) cachedRange(h nfsproto.Handle, off, count uint32) (rangeEntry, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ent, ok := a.data[h][off]
	if !ok {
		return rangeEntry{}, false
	}
	eof := uint32(len(ent.data)) < ent.count
	if count > ent.count && !eof {
		return rangeEntry{}, false
	}
	return ent, true
}

// Read reads count bytes at off, honoring the lease-backed per-range data
// cache: sequential readers re-walking a file hit range by range, and a
// write through any agent invalidates every range at the next revalidation.
func (a *Agent) Read(h nfsproto.Handle, off, count uint32) ([]byte, error) {
	if a.opts.Cache {
		if ent, ok := a.cachedRange(h, off, count); ok {
			fresh, l, attr := a.revalidate(h, ent.epoch)
			if fresh {
				a.mu.Lock()
				a.CacheHits++
				a.mu.Unlock()
				data := ent.data
				if uint32(len(data)) > count {
					data = data[:count]
				}
				return append([]byte(nil), data...), nil
			}
			a.invalidate(h)
			if attr != nil {
				// Repair the attribute entry from the mismatch reply; the
				// data itself still needs the full read below.
				a.cachePutAttr(h, *attr, l, true)
			}
		}
	}
	args := nfsproto.ReadArgs{File: h, Offset: off, Count: count}
	var out []byte
	err := a.doRetry(func() error {
		raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, nfsproto.ProcRead, xdr.Marshal(&args))
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		var res nfsproto.ReadRes
		if err := res.UnmarshalXDR(d); err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return replyErr(d, res.Status)
		}
		l, lok := nfsproto.TrailingLease(d)
		a.cachePutAttr(h, res.Attr, l, lok)
		if a.opts.Cache && lok && l.Valid && len(res.Data) <= maxCachedFile {
			a.mu.Lock()
			if a.data[h] == nil {
				a.data[h] = make(map[uint32]rangeEntry)
			}
			a.data[h][off] = rangeEntry{data: res.Data, count: count, epoch: l.Epoch}
			a.mu.Unlock()
		}
		out = res.Data
		return nil
	})
	return out, err
}

// Write writes data at off. The handle's attribute entry and every cached
// data range are dropped; the next read restamps them under the post-write
// lease epoch.
func (a *Agent) Write(h nfsproto.Handle, off uint32, data []byte) (nfsproto.FAttr, error) {
	a.invalidate(h)
	args := nfsproto.WriteArgs{File: h, Offset: off, Data: data}
	var out nfsproto.FAttr
	err := a.doRetry(func() error {
		attr, err := a.attrCall(nfsproto.ProcWrite, xdr.Marshal(&args))
		if err != nil {
			return err
		}
		out = attr
		return nil
	})
	if err != nil {
		return nfsproto.FAttr{}, err
	}
	a.invalidate(h)
	return out, nil
}

// Create makes a regular file.
func (a *Agent) Create(dir nfsproto.Handle, name string, sa nfsproto.SAttr) (nfsproto.Handle, nfsproto.FAttr, error) {
	a.invalidate(dir)
	args := nfsproto.CreateArgs{Where: nfsproto.DirOpArgs{Dir: dir, Name: name}, Attr: sa}
	return a.dirOpCall(nfsproto.ProcCreate, xdr.Marshal(&args))
}

// Mkdir makes a directory.
func (a *Agent) Mkdir(dir nfsproto.Handle, name string, sa nfsproto.SAttr) (nfsproto.Handle, nfsproto.FAttr, error) {
	a.invalidate(dir)
	args := nfsproto.CreateArgs{Where: nfsproto.DirOpArgs{Dir: dir, Name: name}, Attr: sa}
	return a.dirOpCall(nfsproto.ProcMkdir, xdr.Marshal(&args))
}

func (a *Agent) dirOpCall(proc uint32, args []byte) (nfsproto.Handle, nfsproto.FAttr, error) {
	var fh nfsproto.Handle
	var attr nfsproto.FAttr
	err := a.doRetry(func() error {
		raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, proc, args)
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		var res nfsproto.DirOpRes
		if err := res.UnmarshalXDR(d); err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return replyErr(d, res.Status)
		}
		fh, attr = res.File, res.Attr
		return nil
	})
	if err != nil {
		return nfsproto.Handle{}, nfsproto.FAttr{}, err
	}
	return fh, attr, nil
}

// Remove unlinks a file (or one version via "name;N").
func (a *Agent) Remove(dir nfsproto.Handle, name string) error {
	a.invalidate(dir)
	args := nfsproto.DirOpArgs{Dir: dir, Name: name}
	return a.statusCall(nfsproto.ProcRemove, xdr.Marshal(&args))
}

// Rmdir removes an empty directory.
func (a *Agent) Rmdir(dir nfsproto.Handle, name string) error {
	a.invalidate(dir)
	args := nfsproto.DirOpArgs{Dir: dir, Name: name}
	return a.statusCall(nfsproto.ProcRmdir, xdr.Marshal(&args))
}

// Rename moves a name.
func (a *Agent) Rename(fromDir nfsproto.Handle, fromName string, toDir nfsproto.Handle, toName string) error {
	a.invalidate(fromDir)
	a.invalidate(toDir)
	args := nfsproto.RenameArgs{
		From: nfsproto.DirOpArgs{Dir: fromDir, Name: fromName},
		To:   nfsproto.DirOpArgs{Dir: toDir, Name: toName},
	}
	return a.statusCall(nfsproto.ProcRename, xdr.Marshal(&args))
}

// Link makes a hard link.
func (a *Agent) Link(file nfsproto.Handle, dir nfsproto.Handle, name string) error {
	a.invalidate(file)
	a.invalidate(dir)
	args := nfsproto.LinkArgs{From: file, To: nfsproto.DirOpArgs{Dir: dir, Name: name}}
	return a.statusCall(nfsproto.ProcLink, xdr.Marshal(&args))
}

// Symlink makes a symbolic link.
func (a *Agent) Symlink(dir nfsproto.Handle, name, target string) error {
	a.invalidate(dir)
	args := nfsproto.SymlinkArgs{
		From: nfsproto.DirOpArgs{Dir: dir, Name: name},
		To:   target,
		Attr: nfsproto.SAttr{Mode: nfsproto.NoValue, UID: nfsproto.NoValue, GID: nfsproto.NoValue, Size: nfsproto.NoValue, ATime: nfsproto.NoTime, MTime: nfsproto.NoTime},
	}
	return a.statusCall(nfsproto.ProcSymlink, xdr.Marshal(&args))
}

// Readlink reads a symlink target.
func (a *Agent) Readlink(h nfsproto.Handle) (string, error) {
	var out string
	err := a.doRetry(func() error {
		raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, nfsproto.ProcReadlink, xdr.Marshal(&h))
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		var res nfsproto.ReadlinkRes
		if err := res.UnmarshalXDR(d); err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return replyErr(d, res.Status)
		}
		out = res.Path
		return nil
	})
	return out, err
}

// Readdir lists a directory completely, following cookies.
func (a *Agent) Readdir(dir nfsproto.Handle) ([]nfsproto.DirEntry, error) {
	var out []nfsproto.DirEntry
	cookie := uint32(0)
	for {
		args := nfsproto.ReaddirArgs{Dir: dir, Cookie: cookie, Count: 4096}
		var res nfsproto.ReaddirRes
		err := a.doRetry(func() error {
			raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, nfsproto.ProcReaddir, xdr.Marshal(&args))
			if err != nil {
				return err
			}
			d := xdr.NewDecoder(raw)
			if err := res.UnmarshalXDR(d); err != nil {
				return err
			}
			if res.Status != nfsproto.OK {
				return replyErr(d, res.Status)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, res.Entries...)
		if res.EOF || len(res.Entries) == 0 {
			return out, nil
		}
		cookie = res.Entries[len(res.Entries)-1].Cookie
	}
}

// Statfs queries filesystem statistics.
func (a *Agent) Statfs() (nfsproto.StatfsRes, error) {
	h := a.Root()
	var res nfsproto.StatfsRes
	err := a.doRetry(func() error {
		raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, nfsproto.ProcStatfs, xdr.Marshal(&h))
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		if err := res.UnmarshalXDR(d); err != nil {
			return err
		}
		if res.Status != nfsproto.OK {
			return replyErr(d, res.Status)
		}
		return nil
	})
	if err != nil {
		return nfsproto.StatfsRes{}, err
	}
	return res, nil
}

func (a *Agent) statusCall(proc uint32, args []byte) error {
	return a.doRetry(func() error {
		raw, err := a.call(nfsproto.NFSProgram, nfsproto.NFSVersion, proc, args)
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		st := nfsproto.Status(d.Uint32())
		if d.Err() != nil {
			return d.Err()
		}
		return replyErr(d, st)
	})
}

// ---------------------------------------------------------- path helpers --

// Walk resolves a slash-separated path from the root, following the
// version-qualified name syntax in the final component.
func (a *Agent) Walk(p string) (nfsproto.Handle, nfsproto.FAttr, error) {
	h := a.Root()
	attr, err := a.Getattr(h)
	if err != nil {
		return nfsproto.Handle{}, nfsproto.FAttr{}, err
	}
	for _, part := range strings.Split(path.Clean("/"+p), "/") {
		if part == "" || part == "." {
			continue
		}
		h2, a2, err := a.Lookup(h, part)
		if err != nil {
			return nfsproto.Handle{}, nfsproto.FAttr{}, err
		}
		h, attr = h2, a2
	}
	return h, attr, nil
}

// ReadFile reads a whole file by path.
func (a *Agent) ReadFile(p string) ([]byte, error) {
	h, attr, err := a.Walk(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, attr.Size)
	off := uint32(0)
	for {
		chunk, err := a.Read(h, off, 8192)
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
		off += uint32(len(chunk))
		if len(chunk) < 8192 {
			return out, nil
		}
	}
}

// WriteFile creates (or truncates) the file at path and writes data.
func (a *Agent) WriteFile(p string, data []byte) error {
	dir, name := path.Split(path.Clean("/" + p))
	dh, _, err := a.Walk(dir)
	if err != nil {
		return err
	}
	fh, _, err := a.Create(dh, name, nfsproto.SAttr{
		Mode: 0o644, UID: nfsproto.NoValue, GID: nfsproto.NoValue,
		Size: nfsproto.NoValue, ATime: nfsproto.NoTime, MTime: nfsproto.NoTime,
	})
	if err != nil {
		return err
	}
	off := uint32(0)
	for len(data) > 0 {
		n := len(data)
		if n > 8192 {
			n = 8192
		}
		if _, err := a.Write(fh, off, data[:n]); err != nil {
			return err
		}
		off += uint32(n)
		data = data[n:]
	}
	return nil
}

// MkdirAll creates every directory on the path.
func (a *Agent) MkdirAll(p string) error {
	h := a.Root()
	for _, part := range strings.Split(path.Clean("/"+p), "/") {
		if part == "" || part == "." {
			continue
		}
		h2, _, err := a.Lookup(h, part)
		if err == nil {
			h = h2
			continue
		}
		if !IsNotExist(err) {
			return err
		}
		h2, _, err = a.Mkdir(h, part, nfsproto.SAttr{
			Mode: 0o755, UID: nfsproto.NoValue, GID: nfsproto.NoValue,
			Size: nfsproto.NoValue, ATime: nfsproto.NoTime, MTime: nfsproto.NoTime,
		})
		if err != nil {
			return err
		}
		h = h2
	}
	return nil
}

// -------------------------------------------------------- special cmds --

// FileStat returns the Deceit-specific state of a file: versions, replicas,
// token holders and parameters ("locate all replicas", "list all versions").
func (a *Agent) FileStat(h nfsproto.Handle) (server.CtlStatRes, error) {
	raw, err := a.call(server.CtlProgram, server.CtlVersion, server.CtlStat, xdr.Marshal(&h))
	if err != nil {
		return server.CtlStatRes{}, err
	}
	var res server.CtlStatRes
	if err := xdr.Unmarshal(raw, &res); err != nil {
		return server.CtlStatRes{}, err
	}
	if res.Status != 0 {
		return res, statusErr(nfsproto.Status(res.Status))
	}
	return res, nil
}

// SetParams changes a file's semantic parameters (§4).
func (a *Agent) SetParams(h nfsproto.Handle, p server.CtlParams) error {
	e := xdr.NewEncoder(nil)
	h.MarshalXDR(e)
	p.MarshalXDR(e)
	return a.ctlStatusCall(server.CtlSetParams, e.Bytes())
}

// AddReplica forces a replica of version index idx (0 = current) onto the
// named server.
func (a *Agent) AddReplica(h nfsproto.Handle, idx uint32, srv string) error {
	e := xdr.NewEncoder(nil)
	h.MarshalXDR(e)
	e.Uint32(idx)
	e.String(srv)
	return a.ctlStatusCall(server.CtlAddReplica, e.Bytes())
}

// RemoveReplica deletes the replica on the named server.
func (a *Agent) RemoveReplica(h nfsproto.Handle, idx uint32, srv string) error {
	e := xdr.NewEncoder(nil)
	h.MarshalXDR(e)
	e.Uint32(idx)
	e.String(srv)
	return a.ctlStatusCall(server.CtlRemoveReplica, e.Bytes())
}

// ReconcileDir merges every version of a partitioned directory into the
// current one, returning the number of recovered entries (§2.1's "reconcile
// directory versions" special command).
func (a *Agent) ReconcileDir(h nfsproto.Handle) (int, error) {
	a.invalidate(h)
	raw, err := a.call(server.CtlProgram, server.CtlVersion, server.CtlReconcileDir, xdr.Marshal(&h))
	if err != nil {
		return 0, err
	}
	d := xdr.NewDecoder(raw)
	st := nfsproto.Status(d.Uint32())
	merged := int(d.Uint32())
	if err := d.Err(); err != nil {
		return 0, err
	}
	return merged, replyErr(d, st)
}

// Conflicts fetches the server's conflict log (§3.6).
func (a *Agent) Conflicts() ([]string, error) {
	raw, err := a.call(server.CtlProgram, server.CtlVersion, server.CtlConflicts, nil)
	if err != nil {
		return nil, err
	}
	d := xdr.NewDecoder(raw)
	st := nfsproto.Status(d.Uint32())
	if st != nfsproto.OK {
		return nil, statusErr(st)
	}
	n := d.Uint32()
	var out []string
	for i := uint32(0); i < n && i < 65536; i++ {
		out = append(out, d.String())
	}
	return out, d.Err()
}

func (a *Agent) ctlStatusCall(proc uint32, args []byte) error {
	return a.doRetry(func() error {
		raw, err := a.call(server.CtlProgram, server.CtlVersion, proc, args)
		if err != nil {
			return err
		}
		d := xdr.NewDecoder(raw)
		return replyErr(d, nfsproto.Status(d.Uint32()))
	})
}
