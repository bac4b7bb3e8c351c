package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/agent"
	"repro/internal/nfsproto"
	"repro/internal/simnet"
)

// opKind is one NFS-level operation a client issues.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opGetattr
	opLookup
	opReaddir
	opCreate // create + remove of one name, timed as one op
	numKinds
)

// class groups op kinds the way a user sees them; latency is reported per
// class.
type class int

const (
	classRead class = iota
	classWrite
	classStat   // getattr, lookup, readdir
	classCreate // create + remove
	numClasses
)

var classNames = [numClasses]string{"read", "write", "stat", "create"}

var kindClass = [numKinds]class{classRead, classWrite, classStat, classStat, classStat, classCreate}

// workload is one traffic mix. Files are 8 KiB and data ops are 512-byte,
// block-aligned; client c writes only blocks with blk % 2 == c, so both
// clients contend for the same files while every block has one writer.
type workload struct {
	name    string
	why     string
	files   int
	zipf    bool             // Zipf(s=1.2) file choice instead of uniform
	percent [numKinds]int    // op mix, sums to 100
	cum     [numKinds]int    // filled by init
	classes [numClasses]bool // classes the mix contains
}

var workloads = []*workload{
	{
		name:    "read-spread",
		why:     "90% read/10% getattr over 64 stable files: agent, sunrpc, server, envelope and core-local only; isis and store idle",
		files:   64,
		percent: [numKinds]int{opRead: 90, opGetattr: 10},
	},
	{
		name:    "write-spread",
		why:     "100% writes over 512 files: each finds its file stable, half find the token remote; isis rounds and store fsyncs dominate",
		files:   512,
		percent: [numKinds]int{opWrite: 100},
	},
	{
		name:    "hot-mixed",
		why:     "70% read/30% write, Zipf(1.2) over 64 files from two servers: token ping-pong, read-token revocation, cache invalidation",
		files:   64,
		zipf:    true,
		percent: [numKinds]int{opRead: 70, opWrite: 30},
	},
	{
		name:    "meta-churn",
		why:     "getattr/lookup/readdir/create+remove in one shared 64-file directory: envelope directory read-modify-write under contention",
		files:   64,
		percent: [numKinds]int{opGetattr: 40, opLookup: 20, opReaddir: 20, opCreate: 20},
	},
}

func init() {
	for _, w := range workloads {
		sum := 0
		for k, p := range w.percent {
			sum += p
			w.cum[k] = sum
		}
		if sum != 100 {
			panic(fmt.Sprintf("workload %s: mix sums to %d", w.name, sum))
		}
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

var newFileAttr = nfsproto.SAttr{
	Mode: 0o644, UID: nfsproto.NoValue, GID: nfsproto.NoValue,
	Size: nfsproto.NoValue, ATime: nfsproto.NoTime, MTime: nfsproto.NoTime,
}

// fileset is the prepopulated directory a workload runs on.
type fileset struct {
	dir     nfsproto.Handle
	names   []string
	handles []nfsproto.Handle
	index   map[string]int
	moved   int // files whose replicas set-up had to move
}

// settle outlasts twice the shipped stability delay (core.Options
// StabilityDelay, 150 ms): after it, every file written before is stable.
const settle = 400 * time.Millisecond

// populate creates dir with n 8 KiB files, every block stamped seq 1. File
// f is created and written through client f % 2, so write tokens start out
// spread over both clients' servers the way the run will leave them.
func populate(c *cell, dirName string, n int) (*fileset, error) {
	mode := newFileAttr
	mode.Mode = 0o755
	dir, _, err := c.clients[0].Mkdir(c.clients[0].Root(), dirName, mode)
	if err != nil {
		return nil, fmt.Errorf("mkdir %s: %w", dirName, err)
	}
	fs := &fileset{dir: dir, index: make(map[string]int, n)}
	buf := make([]byte, fileSize)
	for f := 0; f < n; f++ {
		for blk := 0; blk < blocksPerFile; blk++ {
			stampBlock(buf[blk*blockSize:(blk+1)*blockSize], f, blk, blockWriter(blk), 1)
		}
		name := fmt.Sprintf("f%04d", f)
		h, err := createFile(c.clients[f%numClients], dir, name, buf)
		if err != nil {
			return nil, err
		}
		fs.names = append(fs.names, name)
		fs.handles = append(fs.handles, h)
		fs.index[name] = f
	}
	time.Sleep(settle)
	if fs.moved, err = c.placeReplicas(c.clients[0], fs.handles); err != nil {
		return nil, err
	}
	return fs, nil
}

// createFile creates name, waits until the cell has grown its second
// replica, and writes data. Writing at once would race the background
// replica transfer, which then often lands on the third server as well or
// instead.
func createFile(ag *agent.Agent, dir nfsproto.Handle, name string, data []byte) (nfsproto.Handle, error) {
	h, _, err := ag.Create(dir, name, newFileAttr)
	if err != nil {
		return h, fmt.Errorf("create %s: %w", name, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		reps, err := currentReplicas(ag, h)
		if err != nil {
			return h, fmt.Errorf("stat %s: %w", name, err)
		}
		if len(reps) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("%s: still %d replica after 10 s", name, len(reps))
		}
	}
	if _, err := ag.Write(h, 0, data); err != nil {
		return h, fmt.Errorf("write %s: %w", name, err)
	}
	return h, nil
}

// currentReplicas lists the servers holding a replica of h's current version.
func currentReplicas(ag *agent.Agent, h nfsproto.Handle) ([]string, error) {
	st, err := ag.FileStat(h)
	if err != nil {
		return nil, err
	}
	for _, v := range st.Versions {
		if v.Current {
			return v.Replicas, nil
		}
	}
	return nil, nil
}

// placeReplicas gives every file replicas on exactly the two servers the
// clients are homed on, through the control program's add and remove
// replica commands, and returns how many files it had to change. Left to
// itself the cell now and then regenerates a new file's second replica on
// the third server too; which files those are differs from run to run, and a
// third replica under a hot file moves its write cost by a third. The
// benchmark needs the same starting state every time.
func (c *cell) placeReplicas(ag *agent.Agent, handles []nfsproto.Handle) (changed int, err error) {
	for pass := 0; pass < 3; pass++ {
		n, err := c.placeOnce(ag, handles)
		if err != nil || n == 0 {
			return changed, err
		}
		changed += n
		time.Sleep(settle) // let the cell react before checking again
	}
	return changed, fmt.Errorf("replica placement does not hold: %d changes in 3 passes", changed)
}

func (c *cell) placeOnce(ag *agent.Agent, handles []nfsproto.Handle) (changed int, err error) {
	for _, h := range handles {
		have, err := currentReplicas(ag, h)
		if err != nil {
			return changed, fmt.Errorf("stat for placement: %w", err)
		}
		touched := false
		for _, id := range c.ids[:numClients] {
			if !slices.Contains(have, string(id)) {
				touched = true
				if err := ag.AddReplica(h, 0, string(id)); err != nil {
					return changed, fmt.Errorf("add replica on %s: %w", id, err)
				}
			}
		}
		for _, r := range have {
			if !slices.Contains(c.ids[:numClients], simnet.NodeID(r)) {
				touched = true
				if err := ag.RemoveReplica(h, 0, r); err != nil {
					return changed, fmt.Errorf("remove replica on %s: %w", r, err)
				}
			}
		}
		if touched {
			changed++
		}
	}
	return changed, nil
}

// sample is one timed op.
type sample struct {
	class class
	end   time.Duration // since the epoch
	dur   time.Duration
}

// client is one closed-loop caller: it issues its next op only after the
// previous one returned.
type client struct {
	id    int
	epoch time.Time // clock readings are times since it
	ag    *agent.Agent
	w     *workload
	fs    *fileset
	chk   *checker
	rng   *rand.Rand
	zipf  *rand.Zipf
	buf   []byte
	seen  []bool // readdir scratch
	made  int    // names this client has created

	tr          *tracer // nil with tracing off
	calibrating bool    // ops do nothing: measures the loop itself

	samples   []sample
	attempted int
	failed    int // error returned
	wrong     int // reply did not verify
	firstErr  error
}

func newClient(id int, epoch time.Time, ag *agent.Agent, w *workload, fs *fileset, chk *checker, seed int64) *client {
	cl := &client{
		id: id, epoch: epoch, ag: ag, w: w, fs: fs, chk: chk,
		rng:  rand.New(rand.NewSource(seed*numClients + int64(id))),
		buf:  make([]byte, blockSize),
		seen: make([]bool, w.files),
	}
	if w.zipf {
		cl.zipf = rand.NewZipf(cl.rng, 1.2, 1, uint64(w.files-1))
	}
	return cl
}

func (cl *client) pickKind() opKind {
	n := cl.rng.Intn(100)
	for k, c := range cl.w.cum {
		if n < c {
			return opKind(k)
		}
	}
	panic("unreachable: mix sums to 100")
}

func (cl *client) pickFile() int {
	if cl.zipf != nil {
		return int(cl.zipf.Uint64())
	}
	return cl.rng.Intn(cl.w.files)
}

var errWrong = errors.New("wrong output")

// run issues ops until the deadline, a time since the epoch like every clock
// reading here (one monotonic read each, half the cost of time.Now). With
// record set it keeps a sample per op that completed and verified before
// the deadline.
func (cl *client) run(deadline time.Duration, record bool) {
	for {
		kind := cl.pickKind()
		file := cl.pickFile()
		blk := cl.rng.Intn(blocksPerFile)
		start := time.Since(cl.epoch)
		if start >= deadline {
			return
		}
		var root uint64
		if cl.tr != nil {
			root = cl.tr.begin()
		}
		var err error
		if !cl.calibrating {
			err = cl.do(kind, file, blk, root)
		}
		end := time.Since(cl.epoch)
		if cl.tr != nil {
			cl.tr.end(root, 0, root, "op."+classNames[kindClass[kind]], start, end)
		}
		if !record {
			continue
		}
		cl.attempted++
		switch {
		case err == nil:
			if end <= deadline {
				cl.samples = append(cl.samples, sample{kindClass[kind], end, end - start})
			}
		case errors.Is(err, errWrong):
			cl.wrong++
		default:
			cl.failed++
		}
		if err != nil && cl.firstErr == nil {
			cl.firstErr = err
		}
	}
}

// call runs one agent call, recording a span under the op's root span when
// tracing is on.
func (cl *client) call(root uint64, name string, fn func() error) error {
	if cl.tr == nil {
		return fn()
	}
	id := cl.tr.begin()
	start := time.Since(cl.epoch)
	err := fn()
	cl.tr.end(id, root, root, name, start, time.Since(cl.epoch))
	return err
}

// do issues one op and verifies its reply.
func (cl *client) do(kind opKind, file, blk int, root uint64) error {
	h := cl.fs.handles[file]
	switch kind {
	case opRead:
		floor := cl.chk.floor(file, blk)
		var data []byte
		err := cl.call(root, "agent.Read", func() (err error) {
			data, err = cl.ag.Read(h, uint32(blk*blockSize), blockSize)
			return err
		})
		if err != nil {
			return err
		}
		if err := cl.chk.checkRead(data, file, blk, floor); err != nil {
			return fmt.Errorf("%w: %v", errWrong, err)
		}
	case opWrite:
		blk = blk - blk%numClients + cl.id // this client's block of the pair
		seq := cl.chk.nextSeq(file, blk)
		stampBlock(cl.buf, file, blk, cl.id, seq)
		err := cl.call(root, "agent.Write", func() error {
			_, err := cl.ag.Write(h, uint32(blk*blockSize), cl.buf)
			return err
		})
		if err != nil {
			return err
		}
		cl.chk.ack(file, blk, seq)
	case opGetattr:
		var attr nfsproto.FAttr
		err := cl.call(root, "agent.Getattr", func() (err error) {
			attr, err = cl.ag.Getattr(h)
			return err
		})
		if err != nil {
			return err
		}
		if attr.Size != fileSize {
			return fmt.Errorf("%w: getattr %s: size %d", errWrong, cl.fs.names[file], attr.Size)
		}
	case opLookup:
		var got nfsproto.Handle
		err := cl.call(root, "agent.Lookup", func() (err error) {
			got, _, err = cl.ag.Lookup(cl.fs.dir, cl.fs.names[file])
			return err
		})
		if err != nil {
			return err
		}
		if got != h {
			return fmt.Errorf("%w: lookup %s: other handle", errWrong, cl.fs.names[file])
		}
	case opReaddir:
		var ents []nfsproto.DirEntry
		err := cl.call(root, "agent.Readdir", func() (err error) {
			ents, err = cl.ag.Readdir(cl.fs.dir)
			return err
		})
		if err != nil {
			return err
		}
		if missing := cl.missingFrom(ents); missing > 0 {
			return fmt.Errorf("%w: readdir lists %d entries, %d base files missing", errWrong, len(ents), missing)
		}
	case opCreate:
		cl.made++
		name := fmt.Sprintf("c%d-%d", cl.id, cl.made)
		err := cl.call(root, "agent.Create", func() error {
			_, _, err := cl.ag.Create(cl.fs.dir, name, newFileAttr)
			return err
		})
		if err != nil {
			return err
		}
		return cl.call(root, "agent.Remove", func() error { return cl.ag.Remove(cl.fs.dir, name) })
	}
	return nil
}

// missingFrom counts base files a directory listing lacks.
func (cl *client) missingFrom(ents []nfsproto.DirEntry) int {
	clear(cl.seen)
	found := 0
	for _, e := range ents {
		if f, ok := cl.fs.index[e.Name]; ok && !cl.seen[f] {
			cl.seen[f] = true
			found++
		}
	}
	return len(cl.fs.names) - found
}

// audit re-reads every block written after prepopulation through ag and
// requires the last acknowledged write (or, where the last write call
// failed, anything from the acknowledged one up to it). It returns the
// blocks checked and those found wrong.
func audit(ag *agent.Agent, fs *fileset, chk *checker) (checked, wrong int, first error) {
	for f, h := range fs.handles {
		var data []byte
		for blk := 0; blk < blocksPerFile; blk++ {
			if !chk.written(f, blk) {
				continue
			}
			checked++
			if data == nil {
				var err error
				if data, err = ag.Read(h, 0, fileSize); err != nil || len(data) != fileSize {
					if first == nil {
						first = fmt.Errorf("audit read %s: %d bytes, %v", fs.names[f], len(data), err)
					}
					data = make([]byte, fileSize) // every written block of f fails below
				}
			}
			if err := chk.checkRead(data[blk*blockSize:(blk+1)*blockSize], f, blk, chk.floor(f, blk)); err != nil {
				wrong++
				if first == nil {
					first = fmt.Errorf("audit: %w", err)
				}
			}
		}
	}
	return checked, wrong, first
}
