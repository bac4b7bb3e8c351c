package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

const (
	fileSize      = 8 << 10
	blockSize     = 512
	blocksPerFile = fileSize / blockSize
	blockMagic    = 0xDECE17B1
	blockHeader   = 24
)

// stampBlock fills dst, one block, with the seq-th write of (file, blk) by
// client: a header naming all four, then filler derived from them, so a
// block torn between two writes is malformed rather than plausible.
func stampBlock(dst []byte, file, blk, client int, seq uint64) {
	binary.BigEndian.PutUint32(dst[0:], blockMagic)
	binary.BigEndian.PutUint32(dst[4:], uint32(file))
	binary.BigEndian.PutUint32(dst[8:], uint32(blk))
	binary.BigEndian.PutUint32(dst[12:], uint32(client))
	binary.BigEndian.PutUint64(dst[16:], seq)
	fill := fillByte(file, blk, seq)
	for i := blockHeader; i < blockSize; i++ {
		dst[i] = fill
	}
}

func fillByte(file, blk int, seq uint64) byte { return byte(uint64(file)*31 + uint64(blk)*7 + seq) }

// blockWriter is the one client allowed to write blk: with one writer per
// block, "a read returns the latest acknowledged write" (the §3.4 one-copy
// promise) is checkable in O(1) from a per-block sequence number.
func blockWriter(blk int) int { return blk % numClients }

// parseBlock returns the sequence number b carries, or an error if b is not
// a whole, untorn block of (file, blk) from that block's writer.
func parseBlock(b []byte, file, blk int) (uint64, error) {
	if len(b) != blockSize {
		return 0, fmt.Errorf("block %d/%d: %d bytes, want %d", file, blk, len(b), blockSize)
	}
	if m := binary.BigEndian.Uint32(b[0:]); m != blockMagic {
		return 0, fmt.Errorf("block %d/%d: bad magic %#x", file, blk, m)
	}
	gotFile, gotBlk := int(binary.BigEndian.Uint32(b[4:])), int(binary.BigEndian.Uint32(b[8:]))
	client := int(binary.BigEndian.Uint32(b[12:]))
	if gotFile != file || gotBlk != blk || client != blockWriter(blk) {
		return 0, fmt.Errorf("block %d/%d: carries file %d block %d client %d", file, blk, gotFile, gotBlk, client)
	}
	seq := binary.BigEndian.Uint64(b[16:])
	fill := fillByte(file, blk, seq)
	for i := blockHeader; i < blockSize; i++ {
		if b[i] != fill {
			return 0, fmt.Errorf("block %d/%d seq %d: torn at byte %d", file, blk, seq, i)
		}
	}
	return seq, nil
}

// checker holds, per block, the highest sequence number handed to a write
// call and the highest one acknowledged. Only the block's writer stores;
// every client loads.
type checker struct {
	issued []atomic.Uint64
	acked  []atomic.Uint64
}

// newChecker starts every block at seq 1, the prepopulated contents.
func newChecker(files int) *checker {
	k := &checker{
		issued: make([]atomic.Uint64, files*blocksPerFile),
		acked:  make([]atomic.Uint64, files*blocksPerFile),
	}
	for i := range k.issued {
		k.issued[i].Store(1)
		k.acked[i].Store(1)
	}
	return k
}

func blockIndex(file, blk int) int { return file*blocksPerFile + blk }

// nextSeq reserves the sequence number for the writer's next write.
func (k *checker) nextSeq(file, blk int) uint64 { return k.issued[blockIndex(file, blk)].Add(1) }

// ack records that the write carrying seq was acknowledged.
func (k *checker) ack(file, blk int, seq uint64) { k.acked[blockIndex(file, blk)].Store(seq) }

// floor is the lowest sequence number a read issued from now on may return;
// load it before sending the read.
func (k *checker) floor(file, blk int) uint64 { return k.acked[blockIndex(file, blk)].Load() }

// checkRead verifies what a read of (file, blk) returned against the floor
// loaded before the read was issued: stale if below it, invented if above
// anything a write call has carried.
func (k *checker) checkRead(data []byte, file, blk int, floor uint64) error {
	seq, err := parseBlock(data, file, blk)
	if err != nil {
		return err
	}
	if seq < floor {
		return fmt.Errorf("block %d/%d: stale read, seq %d below acknowledged %d", file, blk, seq, floor)
	}
	if hi := k.issued[blockIndex(file, blk)].Load(); seq > hi {
		return fmt.Errorf("block %d/%d: seq %d was never written (highest issued %d)", file, blk, seq, hi)
	}
	return nil
}

// written reports whether any write call after prepopulation carried (file, blk).
func (k *checker) written(file, blk int) bool { return k.issued[blockIndex(file, blk)].Load() > 1 }
