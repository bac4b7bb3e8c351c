package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestLogFailStopAfterWalWriteError: a commit whose wal write fails leaves
// the store failed until it is reopened. Were it to keep committing, the
// next frame would land behind whatever the failed write left at the tail —
// here a torn prefix — where recovery stops replaying, and every commit
// acknowledged after the failure would be lost.
func TestLogFailStopAfterWalWriteError(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenLog(dir, LogOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(i int) []Op {
		return []Op{{Bucket: "b", Key: fmt.Sprintf("k%d", i), Val: []byte{byte(i)}}}
	}
	submitted := make(map[string]bool)
	var acked []string
	commit := func(i int) error {
		submitted[fmt.Sprintf("k%d", i)] = true
		err := s.PutBatch(batch(i))
		if err == nil {
			acked = append(acked, fmt.Sprintf("k%d", i))
		}
		return err
	}
	for i := 0; i < 3; i++ {
		if err := commit(i); err != nil {
			t.Fatal(err)
		}
	}

	// A read-only handle makes the next wal write fail; a short prefix of
	// the frame reaching the file first models a write torn by the error.
	wal := s.wal
	ro, err := os.Open(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	s.wal = ro
	if err := commit(3); err == nil {
		t.Fatal("commit on a read-only wal succeeded")
	}
	s.wal = wal
	ro.Close()
	if _, err := wal.Write(encodeFrame(s.seq+1, batch(3))[:frameHdrSz/2]); err != nil {
		t.Fatal(err)
	}

	for i := 4; i < 8; i++ {
		if err := commit(i); err == nil {
			t.Errorf("commit k%d after a failed wal write was acknowledged", i)
		}
	}
	if _, _, err := s.Get("b", "k0"); err == nil {
		t.Error("Get after a failed wal write succeeded")
	}
	s.Close()

	re, err := OpenLog(dir, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, k := range acked {
		if _, ok, err := re.Get("b", k); err != nil || !ok {
			t.Errorf("acknowledged commit %s lost on recovery (%v)", k, err)
		}
	}
	keys, err := re.Keys("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !submitted[k] {
			t.Errorf("recovered %s, which was never submitted", k)
		}
	}
	if err := re.PutBatch(batch(8)); err != nil {
		t.Fatalf("commit after reopen: %v", err)
	}
}
