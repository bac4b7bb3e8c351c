package store_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/store"
)

// put and del commit a single op, the way a server persists outside a
// batched cast.
func put(s store.Store, bucket, key string, val []byte) error {
	return s.PutBatch([]store.Op{{Bucket: bucket, Key: key, Val: val}})
}

func del(s store.Store, bucket, key string) error {
	return s.PutBatch([]store.Op{{Bucket: bucket, Key: key, Delete: true}})
}

// storeImpls returns a fresh instance of every Store implementation.
func storeImpls(t *testing.T) map[string]store.Store {
	t.Helper()
	logst, err := store.OpenLog(t.TempDir(), store.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]store.Store{
		"mem-sync": store.NewMemStore(),
		"log":      logst,
	}
}

func TestPutGetDeleteAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			if err := put(s, "b", "k", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get("b", "k")
			if err != nil || !ok || string(v) != "v1" {
				t.Fatalf("Get = %q %v %v", v, ok, err)
			}
			// Overwrite.
			if err := put(s, "b", "k", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			v, _, _ = s.Get("b", "k")
			if string(v) != "v2" {
				t.Fatalf("after overwrite = %q", v)
			}
			// Missing key.
			if _, ok, _ := s.Get("b", "missing"); ok {
				t.Error("missing key found")
			}
			// Bucket isolation.
			if _, ok, _ := s.Get("other", "k"); ok {
				t.Error("bucket leak")
			}
			// Delete, including idempotence.
			if err := del(s, "b", "k"); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := s.Get("b", "k"); ok {
				t.Error("deleted key found")
			}
			if err := del(s, "b", "k"); err != nil {
				t.Fatal("second delete errored:", err)
			}
		})
	}
}

func TestKeysSortedAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for _, k := range []string{"zebra", "alpha", "mid"} {
				if err := put(s, "b", k, []byte(k)); err != nil {
					t.Fatal(err)
				}
			}
			keys, err := s.Keys("b")
			if err != nil {
				t.Fatal(err)
			}
			if len(keys) != 3 || keys[0] != "alpha" || keys[1] != "mid" || keys[2] != "zebra" {
				t.Fatalf("Keys = %v", keys)
			}
			keys, err = s.Keys("empty-bucket")
			if err != nil || len(keys) != 0 {
				t.Fatalf("empty bucket Keys = %v, %v", keys, err)
			}
		})
	}
}

func TestValueIsolationAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			buf := []byte("data")
			if err := put(s, "b", "k", buf); err != nil {
				t.Fatal(err)
			}
			buf[0] = 'X' // mutate caller's buffer after the commit
			v, _, _ := s.Get("b", "k")
			if string(v) != "data" {
				t.Errorf("PutBatch aliased caller buffer: %q", v)
			}
			v[0] = 'Y' // mutate returned buffer
			v2, _, _ := s.Get("b", "k")
			if string(v2) != "data" {
				t.Errorf("Get returned aliased buffer: %q", v2)
			}
		})
	}
}

func TestBinaryKeysAllImpls(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			key := string([]byte{0, 1, '/', '\\', 0xFF, '.', '.'})
			if err := put(s, "b", key, []byte("bin")); err != nil {
				t.Fatal(err)
			}
			v, ok, err := s.Get("b", key)
			if err != nil || !ok || string(v) != "bin" {
				t.Fatalf("binary key Get = %q %v %v", v, ok, err)
			}
			keys, _ := s.Keys("b")
			if len(keys) != 1 || keys[0] != key {
				t.Fatalf("Keys = %q", keys)
			}
		})
	}
}

func TestClosedStoreErrors(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Close()
			if err := put(s, "b", "k", nil); err != store.ErrClosed {
				t.Errorf("put err = %v", err)
			}
			if _, _, err := s.Get("b", "k"); err != store.ErrClosed {
				t.Errorf("Get err = %v", err)
			}
			if err := del(s, "b", "k"); err != store.ErrClosed {
				t.Errorf("delete err = %v", err)
			}
			if _, err := s.Keys("b"); err != store.ErrClosed {
				t.Errorf("Keys err = %v", err)
			}
		})
	}
}

// Property: random put/delete batches leave LogStore — with checkpoints
// interleaved by a tiny CheckpointBytes, and again after a reopen — in the
// same state as MemStore, the executable reference.
func TestQuickLogMatchesMemModel(t *testing.T) {
	type op struct {
		Del    bool
		Bucket uint8
		Key    uint8
		Val    []byte
	}
	buckets := []string{"meta", "data", "b"}
	f := func(batches [][]op) bool {
		dir := t.TempDir()
		ls, err := store.OpenLog(dir, store.LogOptions{CheckpointBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		ref := store.NewMemStore()
		for _, b := range batches {
			ops := make([]store.Op, len(b))
			for i, o := range b {
				ops[i] = store.Op{
					Bucket: buckets[int(o.Bucket)%len(buckets)],
					Key:    string([]byte{'k', o.Key % 8}),
					Val:    o.Val,
					Delete: o.Del,
				}
			}
			if err := ls.PutBatch(ops); err != nil {
				t.Fatal(err)
			}
			if err := ref.PutBatch(ops); err != nil {
				t.Fatal(err)
			}
		}
		want := dump(t, ref)
		if !equalState(dump(t, ls), want) {
			return false
		}
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		return equalState(dump(t, re), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: LogStore round-trips arbitrary binary keys and values across a
// reopen.
func TestQuickLogRoundTrip(t *testing.T) {
	f := func(kvs []struct{ K, V []byte }) bool {
		dir := t.TempDir()
		s, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string][]byte)
		for _, kv := range kvs {
			if err := put(s, "q", string(kv.K), kv.V); err != nil {
				t.Fatal(err)
			}
			want[string(kv.K)] = kv.V
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys, err := s.Keys("q")
		if err != nil || len(keys) != len(want) {
			return false
		}
		for k, v := range want {
			got, ok, err := s.Get("q", k)
			if err != nil || !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
