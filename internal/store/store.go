// Package store implements the per-server non-volatile storage Deceit
// requires (§3.5, "Local Non-volatile Storage"): file/replica data, replica
// state, version pairs, token state, and the map between file handles and
// local names are all persisted here.
//
// The interface is a bucketed key/value store with one commit primitive,
// PutBatch: every mutation — a single put or delete, or everything a
// delivered cast dirtied — is one batch, applied whole. Two implementations
// exist:
//
//   - LogStore (log.go), the durable store: an append-only log with periodic
//     checkpoints. Each batch is committed as one framed, CRC-protected
//     record with a single fsync, and recovery is checkpoint + log suffix
//     with torn tail records truncated.
//   - MemStore, an in-memory test double with the same semantics and no
//     durability: it is what a server runs on when nothing need survive a
//     restart, and the reference model the LogStore property tests compare
//     against.
package store

import (
	"errors"
	"sort"
	"sync"
)

// Op is one mutation inside a PutBatch commit: a put of Val under
// (Bucket, Key), or — when Delete is set — a removal of the key. Deleting a
// missing key is not an error.
type Op struct {
	Bucket string
	Key    string
	Val    []byte
	Delete bool
}

// Store is the non-volatile storage interface.
type Store interface {
	// PutBatch applies a run of mutations, in order, as one commit. On
	// LogStore the whole batch is durable when PutBatch returns nil and
	// costs a single fsync. An error means the batch may or may not survive
	// a restart, but never partially.
	PutBatch(ops []Op) error
	// Get reads a value, reporting whether it exists.
	Get(bucket, key string) ([]byte, bool, error)
	// Keys lists the keys in a bucket in sorted order.
	Keys(bucket string) ([]string, error)
	// Close releases resources. The store must not be used afterwards.
	Close() error
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// MemStore is an in-memory Store. Nothing it holds survives the process.
type MemStore struct {
	mu     sync.RWMutex
	data   map[string]map[string][]byte
	closed bool
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{data: make(map[string]map[string][]byte)}
}

// PutBatch implements Store.
func (s *MemStore) PutBatch(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, op := range ops {
		if op.Delete {
			delete(s.data[op.Bucket], op.Key)
			continue
		}
		b := s.data[op.Bucket]
		if b == nil {
			b = make(map[string][]byte)
			s.data[op.Bucket] = b
		}
		b[op.Key] = append([]byte(nil), op.Val...)
	}
	return nil
}

// Get implements Store.
func (s *MemStore) Get(bucket, key string) ([]byte, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	v, ok := s.data[bucket][key]
	if !ok {
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Keys implements Store.
func (s *MemStore) Keys(bucket string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	out := make([]string, 0, len(s.data[bucket]))
	for k := range s.data[bucket] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out, nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
