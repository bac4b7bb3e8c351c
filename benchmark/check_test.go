package main

import (
	"strings"
	"testing"
)

// The checker must flag a read that returns a write older than the last one
// acknowledged before the read was issued, which is the §3.4 one-copy
// violation the benchmark exists to catch.
func TestCheckerFlagsStaleRead(t *testing.T) {
	const file, blk = 3, 5
	chk := newChecker(file + 1)
	block := func(client int, seq uint64) []byte {
		b := make([]byte, blockSize)
		stampBlock(b, file, blk, client, seq)
		return b
	}
	writer := blockWriter(blk)

	seq := chk.nextSeq(file, blk)
	chk.ack(file, blk, seq)
	floor := chk.floor(file, blk)
	if floor != 2 {
		t.Fatalf("floor after one acknowledged write = %d, want 2", floor)
	}
	if err := chk.checkRead(block(writer, 2), file, blk, floor); err != nil {
		t.Errorf("current block rejected: %v", err)
	}
	if err := chk.checkRead(block(writer, 1), file, blk, floor); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Errorf("stale read (seq 1 after seq 2 was acknowledged) not flagged: %v", err)
	}

	// A write in flight may or may not be visible; one never issued may not.
	inflight := chk.nextSeq(file, blk)
	if err := chk.checkRead(block(writer, inflight), file, blk, floor); err != nil {
		t.Errorf("block of an in-flight write rejected: %v", err)
	}
	if err := chk.checkRead(block(writer, inflight+1), file, blk, floor); err == nil {
		t.Error("block with a sequence number no write carried was accepted")
	}

	torn := block(writer, 2)
	copy(torn[blockSize/2:], block(writer, 3)[blockSize/2:])
	if err := chk.checkRead(torn, file, blk, floor); err == nil {
		t.Error("torn block accepted")
	}
	if err := chk.checkRead(block(1-writer, 2), file, blk, floor); err == nil {
		t.Error("block from the other client accepted")
	}
	if err := chk.checkRead(block(writer, 2)[:100], file, blk, floor); err == nil {
		t.Error("short read accepted")
	}
	other := make([]byte, blockSize)
	stampBlock(other, file, blk+2, writer, 2)
	if err := chk.checkRead(other, file, blk, floor); err == nil {
		t.Error("another block's contents accepted")
	}
}
