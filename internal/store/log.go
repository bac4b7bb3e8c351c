package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// LogStore is the log-structured Store: all state lives in memory, every
// mutation is appended to a write-ahead log, and a whole PutBatch is
// group-committed as one framed, CRC-protected record batch with a single
// fsync. Recovery is checkpoint + log suffix: open loads the newest
// checkpoint, replays every log record sequenced after it, and truncates any
// torn tail record a crash left behind (a partially written frame fails its
// CRC and everything from its offset on is discarded — by construction
// nothing durable can follow a torn frame, because commits are sequential
// and each is fsynced before the next begins).
//
// This is the §3.5 "mix of synchronous and asynchronous writes, depending on
// safety" made concrete: the fsync is the synchronous part and it is paid
// once per delivered cast batch, not once per key.
//
// On-disk layout under dir:
//
//	wal        append-only frames: MAGIC seq nops len crc payload
//	checkpoint full-state snapshot, atomically replaced via rename
//	.ckpt-*    checkpoint temp files (swept on open)
type LogStore struct {
	mu   sync.Mutex
	dir  string
	opts LogOptions

	mem map[string]map[string][]byte

	wal     *os.File
	walSize int64

	seq     uint64 // sequence of the last applied commit
	ckptSeq uint64 // sequence covered by the on-disk checkpoint

	syncs   uint64
	commits uint64
	opCount uint64

	// failed is sticky: set by an injected crash (ErrCrashed) or a failed
	// wal write or fsync, after which every call returns it until the
	// directory is reopened. A commit that failed part-way may have left a
	// torn frame, or a whole one nobody acknowledged, at the wal's tail;
	// appending behind it would put later acknowledged commits past the
	// point where recovery stops replaying.
	failed error
	closed bool
}

var _ Store = (*LogStore)(nil)

// LogOptions tunes a LogStore.
type LogOptions struct {
	// CheckpointBytes triggers a checkpoint + log truncation once the log
	// grows past this size. 0 selects 4 MiB; negative disables checkpoints.
	CheckpointBytes int64
	// Faults, if set, injects simulated crashes at named points; see
	// CrashPoint. Used by the recovery property tests and the chaos phase.
	Faults FaultHook
}

// CrashPoint names a location in the commit and checkpoint machinery where a
// FaultHook may inject a simulated machine crash.
type CrashPoint string

// Crash points, in commit order and checkpoint order.
const (
	// CrashBeforeCommit fires before any byte of the frame is written: the
	// commit is lost entirely.
	CrashBeforeCommit CrashPoint = "commit:before"
	// CrashTornCommit fires mid-frame: a prefix of the frame (chosen by
	// FaultHook.Tear) reaches the file — the torn-write case recovery must
	// truncate.
	CrashTornCommit CrashPoint = "commit:torn"
	// CrashBeforeSync fires after the full frame is written but before the
	// fsync: the commit was never acknowledged and may or may not survive.
	CrashBeforeSync CrashPoint = "commit:before-sync"
	// CrashAfterSync fires after the fsync but before the caller sees
	// success: the commit survives but was never acknowledged.
	CrashAfterSync CrashPoint = "commit:after-sync"
	// CrashMidCheckpoint fires mid-way through writing the checkpoint temp
	// file.
	CrashMidCheckpoint CrashPoint = "checkpoint:mid-write"
	// CrashBeforeRename fires after the temp file is complete and fsynced
	// but before it replaces the live checkpoint.
	CrashBeforeRename CrashPoint = "checkpoint:before-rename"
	// CrashAfterRename fires after the rename but before the log is
	// truncated: recovery must skip the already-checkpointed log prefix.
	CrashAfterRename CrashPoint = "checkpoint:after-rename"
)

// FaultHook receives crash points from a LogStore. Crashpoint returning true
// simulates a machine crash at that point: for the torn points the in-flight
// buffer is first cut short at the offset Tear chooses, then the store marks
// itself crashed and every subsequent operation fails with ErrCrashed. The
// harness then reopens the directory with a fresh OpenLog, exactly as a
// rebooted server would.
type FaultHook interface {
	Crashpoint(p CrashPoint) bool
	// Tear picks how many of the n in-flight bytes reach the file when a
	// torn crash point fires. Values are clamped to [0, n].
	Tear(n int) int
}

// ErrCrashed is returned by every operation after an injected crash fired.
var ErrCrashed = errors.New("store: simulated crash")

// ErrCorrupt reports unrecoverable on-disk state (a checkpoint that fails
// its CRC). Torn log tails are not corruption — they are truncated silently.
var ErrCorrupt = errors.New("store: corrupt")

const (
	logMagic   uint32 = 0xDECE1707
	ckptMagic  uint32 = 0xDECE1C97
	walName           = "wal"
	ckptName          = "checkpoint"
	frameHdrSz        = 4 + 8 + 4 + 4 + 4 // magic seq nops len crc
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// OpenLog opens (creating if necessary) a log store rooted at dir and
// recovers its state: newest checkpoint, then the log suffix, truncating a
// torn tail.
func OpenLog(dir string, opts LogOptions) (*LogStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 4 << 20
	}
	s := &LogStore{
		dir:  dir,
		opts: opts,
		mem:  make(map[string]map[string][]byte),
	}
	sweepCheckpointTemps(dir)
	if err := s.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := s.replayLog(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.wal = wal
	s.walSize = fi.Size()
	return s, nil
}

func sweepCheckpointTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		if !ent.IsDir() && len(ent.Name()) > 6 && ent.Name()[:6] == ".ckpt-" {
			_ = os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}

// Dir returns the directory the store persists into, so a harness can crash
// the store and reopen the same state.
func (s *LogStore) Dir() string { return s.dir }

// ---------------------------------------------------------------- commit --

// PutBatch implements Store: the whole batch becomes one framed record batch
// in the log and costs exactly one fsync — the group commit that lets the
// store keep up with batched total-order casts. A failed write or fsync
// fails the store for good (see failed): the caller must reopen it.
func (s *LogStore) PutBatch(ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}

	if s.fireLocked(CrashBeforeCommit) {
		return ErrCrashed
	}
	frame := encodeFrame(s.seq+1, ops)
	if s.opts.Faults != nil && s.opts.Faults.Crashpoint(CrashTornCommit) {
		n := s.opts.Faults.Tear(len(frame))
		if n < 0 {
			n = 0
		}
		if n > len(frame) {
			n = len(frame)
		}
		_, _ = s.wal.Write(frame[:n])
		_ = s.wal.Sync() // make the torn prefix itself visible to recovery
		s.failed = ErrCrashed
		return ErrCrashed
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.failed = fmt.Errorf("store: wal write: %w", err)
		return s.failed
	}
	if s.fireLocked(CrashBeforeSync) {
		return ErrCrashed
	}
	if err := s.wal.Sync(); err != nil {
		s.failed = fmt.Errorf("store: wal fsync: %w", err)
		return s.failed
	}
	s.syncs++
	if s.fireLocked(CrashAfterSync) {
		return ErrCrashed
	}

	s.applyLocked(ops)
	s.seq++
	s.commits++
	s.opCount += uint64(len(ops))
	s.walSize += int64(len(frame))

	if s.opts.CheckpointBytes > 0 && s.walSize >= s.opts.CheckpointBytes {
		if err := s.checkpointLocked(); err != nil {
			// The commit itself is durable; a failed checkpoint only means
			// the log stays long. Injected crashes must surface, though.
			if errors.Is(err, ErrCrashed) {
				return err
			}
		}
	}
	return nil
}

func (s *LogStore) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.failed
}

func (s *LogStore) fireLocked(p CrashPoint) bool {
	if s.opts.Faults != nil && s.opts.Faults.Crashpoint(p) {
		s.failed = ErrCrashed
		return true
	}
	return false
}

func (s *LogStore) applyLocked(ops []Op) {
	for _, op := range ops {
		b := s.mem[op.Bucket]
		if op.Delete {
			if b != nil {
				delete(b, op.Key)
				if len(b) == 0 {
					delete(s.mem, op.Bucket)
				}
			}
			continue
		}
		if b == nil {
			b = make(map[string][]byte)
			s.mem[op.Bucket] = b
		}
		b[op.Key] = append([]byte(nil), op.Val...)
	}
}

// ----------------------------------------------------------------- reads --

// Get implements Store.
func (s *LogStore) Get(bucket, key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return nil, false, err
	}
	v, ok := s.mem[bucket][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Keys implements Store.
func (s *LogStore) Keys(bucket string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return nil, err
	}
	b := s.mem[bucket]
	out := make([]string, 0, len(b))
	for k := range b {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// LogStats describes the store's commit activity.
type LogStats struct {
	Seq           uint64 // last committed batch sequence
	CheckpointSeq uint64 // sequence covered by the on-disk checkpoint
	Commits       uint64 // record batches appended
	Ops           uint64 // ops inside those batches
	Syncs         uint64 // fsyncs issued: one per commit, two per checkpoint
	WalBytes      int64  // current log length
}

// Stats returns commit counters; ops/fsync is Ops/Syncs.
func (s *LogStore) Stats() LogStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return LogStats{
		Seq: s.seq, CheckpointSeq: s.ckptSeq,
		Commits: s.commits, Ops: s.opCount, Syncs: s.syncs,
		WalBytes: s.walSize,
	}
}

// Close implements Store.
func (s *LogStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// ------------------------------------------------------------ checkpoint --

// Checkpoint forces a checkpoint now: the full in-memory state is written to
// a temp file, fsynced, atomically renamed over the live checkpoint, and the
// log is truncated. Crash-safe at every step: the temp file is invisible
// until the rename, and a crash between rename and truncation only leaves
// already-covered records in the log, which recovery skips by sequence.
func (s *LogStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	return s.checkpointLocked()
}

func (s *LogStore) checkpointLocked() error {
	tmp, err := os.CreateTemp(s.dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	name := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(name)
		return err
	}
	body := encodeCheckpoint(s.seq, s.mem)
	if s.opts.Faults != nil && s.opts.Faults.Crashpoint(CrashMidCheckpoint) {
		n := s.opts.Faults.Tear(len(body))
		if n < 0 {
			n = 0
		}
		if n > len(body) {
			n = len(body)
		}
		_, _ = tmp.Write(body[:n])
		tmp.Close() // the torn temp file stays; open sweeps it
		s.failed = ErrCrashed
		return ErrCrashed
	}
	if _, err := tmp.Write(body); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	s.syncs++
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("store: %w", err))
	}
	if s.fireLocked(CrashBeforeRename) {
		return ErrCrashed
	}
	if err := os.Rename(name, filepath.Join(s.dir, ckptName)); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.syncs++
	s.ckptSeq = s.seq
	if s.fireLocked(CrashAfterRename) {
		return ErrCrashed
	}
	// From here on every log record is covered by the checkpoint; truncate.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walSize = 0
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (s *LogStore) loadCheckpoint() error {
	body, err := os.ReadFile(filepath.Join(s.dir, ckptName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	seq, mem, err := decodeCheckpoint(body)
	if err != nil {
		// The checkpoint is only ever replaced by atomic rename of a fully
		// fsynced temp file, so a CRC failure here means real corruption,
		// not a crash artifact — refuse to silently serve partial state.
		return fmt.Errorf("%w: checkpoint: %v", ErrCorrupt, err)
	}
	s.seq, s.ckptSeq, s.mem = seq, seq, mem
	return nil
}

// replayLog applies every log record sequenced after the checkpoint and
// truncates the file at the first torn or corrupt frame.
func (s *LogStore) replayLog() error {
	path := filepath.Join(s.dir, walName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	off := 0
	expect := uint64(0) // first frame seq seen; must then be contiguous
	for {
		frame, seq, ops, ok := decodeFrame(data[off:])
		if !ok {
			break
		}
		if expect != 0 && seq != expect {
			break // out-of-order frame: treat like a torn tail
		}
		expect = seq + 1
		if seq > s.ckptSeq {
			// Records at or before the checkpoint sequence are already folded
			// into the checkpoint (a crash between rename and truncation
			// leaves them behind); replay only the suffix.
			if s.seq != 0 && seq != s.seq+1 {
				break // hole between checkpoint and suffix: stop
			}
			s.applyLocked(ops)
			s.seq = seq
		}
		off += frame
	}
	if off < len(data) {
		// Torn or trailing garbage: cut the file back to the last good frame
		// so the next append starts from a clean boundary.
		if err := os.Truncate(path, int64(off)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// ---------------------------------------------------------------- framing --

// encodeFrame builds one record batch frame:
//
//	magic  uint32
//	seq    uint64
//	nops   uint32
//	len    uint32  (payload length)
//	crc    uint32  (CRC32-C over seq, nops and payload)
//	payload
func encodeFrame(seq uint64, ops []Op) []byte {
	payload := encodeOps(ops)
	out := make([]byte, frameHdrSz+len(payload))
	binary.BigEndian.PutUint32(out[0:], logMagic)
	binary.BigEndian.PutUint64(out[4:], seq)
	binary.BigEndian.PutUint32(out[12:], uint32(len(ops)))
	binary.BigEndian.PutUint32(out[16:], uint32(len(payload)))
	copy(out[frameHdrSz:], payload)
	crc := crc32.Update(0, crcTable, out[4:16])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(out[20:], crc)
	return out
}

// decodeFrame parses the frame at the head of data, returning its total
// length, sequence and ops. ok is false for a short, torn or corrupt frame.
func decodeFrame(data []byte) (frameLen int, seq uint64, ops []Op, ok bool) {
	if len(data) < frameHdrSz {
		return 0, 0, nil, false
	}
	if binary.BigEndian.Uint32(data) != logMagic {
		return 0, 0, nil, false
	}
	seq = binary.BigEndian.Uint64(data[4:])
	nops := binary.BigEndian.Uint32(data[12:])
	plen := binary.BigEndian.Uint32(data[16:])
	crc := binary.BigEndian.Uint32(data[20:])
	if uint64(frameHdrSz)+uint64(plen) > uint64(len(data)) {
		return 0, 0, nil, false
	}
	payload := data[frameHdrSz : frameHdrSz+int(plen)]
	want := crc32.Update(0, crcTable, data[4:16])
	want = crc32.Update(want, crcTable, payload)
	if crc != want {
		return 0, 0, nil, false
	}
	ops, err := decodeOps(payload, int(nops))
	if err != nil {
		return 0, 0, nil, false
	}
	return frameHdrSz + int(plen), seq, ops, true
}

func encodeOps(ops []Op) []byte {
	n := 0
	for _, op := range ops {
		n += 1 + 4 + len(op.Bucket) + 4 + len(op.Key) + 4 + len(op.Val)
	}
	out := make([]byte, 0, n)
	var u32 [4]byte
	putStr := func(s string) {
		binary.BigEndian.PutUint32(u32[:], uint32(len(s)))
		out = append(out, u32[:]...)
		out = append(out, s...)
	}
	for _, op := range ops {
		kind := byte(0)
		if op.Delete {
			kind = 1
		}
		out = append(out, kind)
		putStr(op.Bucket)
		putStr(op.Key)
		binary.BigEndian.PutUint32(u32[:], uint32(len(op.Val)))
		out = append(out, u32[:]...)
		out = append(out, op.Val...)
	}
	return out
}

func decodeOps(data []byte, n int) ([]Op, error) {
	ops := make([]Op, 0, min(n, 4096))
	off := 0
	str := func() (string, error) {
		if off+4 > len(data) {
			return "", io.ErrUnexpectedEOF
		}
		l := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if off+l > len(data) {
			return "", io.ErrUnexpectedEOF
		}
		s := string(data[off : off+l])
		off += l
		return s, nil
	}
	for i := 0; i < n; i++ {
		if off >= len(data) {
			return nil, io.ErrUnexpectedEOF
		}
		kind := data[off]
		off++
		bucket, err := str()
		if err != nil {
			return nil, err
		}
		key, err := str()
		if err != nil {
			return nil, err
		}
		val, err := str()
		if err != nil {
			return nil, err
		}
		op := Op{Bucket: bucket, Key: key, Delete: kind == 1}
		if !op.Delete {
			op.Val = []byte(val)
		}
		ops = append(ops, op)
	}
	if off != len(data) {
		return nil, errors.New("trailing bytes")
	}
	return ops, nil
}

// encodeCheckpoint serializes the full state:
//
//	magic uint32, seq uint64, nbuckets uint32,
//	per bucket: name, nkeys, per key: key, val
//	crc uint32 (over everything after magic)
func encodeCheckpoint(seq uint64, mem map[string]map[string][]byte) []byte {
	buckets := make([]string, 0, len(mem))
	for b := range mem {
		buckets = append(buckets, b)
	}
	sort.Strings(buckets)
	out := make([]byte, 16)
	binary.BigEndian.PutUint32(out[0:], ckptMagic)
	binary.BigEndian.PutUint64(out[4:], seq)
	binary.BigEndian.PutUint32(out[12:], uint32(len(buckets)))
	var u32 [4]byte
	putStr := func(s string) {
		binary.BigEndian.PutUint32(u32[:], uint32(len(s)))
		out = append(out, u32[:]...)
		out = append(out, s...)
	}
	for _, b := range buckets {
		putStr(b)
		keys := make([]string, 0, len(mem[b]))
		for k := range mem[b] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		binary.BigEndian.PutUint32(u32[:], uint32(len(keys)))
		out = append(out, u32[:]...)
		for _, k := range keys {
			putStr(k)
			putStr(string(mem[b][k]))
		}
	}
	crc := crc32.Checksum(out[4:], crcTable)
	binary.BigEndian.PutUint32(u32[:], crc)
	return append(out, u32[:]...)
}

func decodeCheckpoint(data []byte) (uint64, map[string]map[string][]byte, error) {
	if len(data) < 20 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	if binary.BigEndian.Uint32(data) != ckptMagic {
		return 0, nil, errors.New("bad magic")
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if binary.BigEndian.Uint32(tail) != crc32.Checksum(body[4:], crcTable) {
		return 0, nil, errors.New("crc mismatch")
	}
	seq := binary.BigEndian.Uint64(body[4:])
	nb := int(binary.BigEndian.Uint32(body[12:]))
	off := 16
	str := func() (string, error) {
		if off+4 > len(body) {
			return "", io.ErrUnexpectedEOF
		}
		l := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if off+l > len(body) {
			return "", io.ErrUnexpectedEOF
		}
		s := string(body[off : off+l])
		off += l
		return s, nil
	}
	mem := make(map[string]map[string][]byte, nb)
	for i := 0; i < nb; i++ {
		bname, err := str()
		if err != nil {
			return 0, nil, err
		}
		if off+4 > len(body) {
			return 0, nil, io.ErrUnexpectedEOF
		}
		nk := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		b := make(map[string][]byte, nk)
		for j := 0; j < nk; j++ {
			k, err := str()
			if err != nil {
				return 0, nil, err
			}
			v, err := str()
			if err != nil {
				return 0, nil, err
			}
			b[k] = []byte(v)
		}
		mem[bname] = b
	}
	if off != len(body) {
		return 0, nil, errors.New("trailing bytes")
	}
	return seq, mem, nil
}
