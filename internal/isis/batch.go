package isis

import (
	"context"
	"time"

	"repro/internal/simnet"
	"repro/internal/wire"
)

// This file implements batched total-order casts: several application
// payloads packed into one sequenced group message. The batch occupies a
// single total-order slot, so every member applies its ops back to back with
// nothing interleaved — the property the Deceit write path exploits to let a
// run of same-holder updates ride one communication round instead of N
// (extending the paper's §3.3 piggyback idea from "update rides the token
// request" to "a whole queued run rides one cast").
//
// Each member replies once per batch with a frame of per-op replies; the
// origin demultiplexes that frame into one Call per op, so callers wait on
// individual ops exactly as they would for single casts.

// replySink abstracts the origin-side tracking of one cast's replies: a
// plain *Call for single casts, a batchSink fanning out to per-op Calls for
// batched casts.
type replySink interface {
	addReply(from simnet.NodeID, data []byte)
	setSequenced(members []simnet.NodeID)
	memberGone(id simnet.NodeID)
	fail(err error)
}

var (
	_ replySink = (*Call)(nil)
	_ replySink = (*batchSink)(nil)
)

// BatchCall tracks the replies to one batched cast, one Call per op. All ops
// share a total-order slot: a member that delivers any of them delivers all
// of them, contiguously and in batch order.
type BatchCall struct {
	ops []*Call
}

// Len returns the number of ops in the batch.
func (bc *BatchCall) Len() int { return len(bc.ops) }

// Op returns the Call tracking replies to the i-th op.
func (bc *BatchCall) Op(i int) *Call { return bc.ops[i] }

// Wait waits for k replies to every op (see Call.Wait) and returns the
// per-op reply sets.
func (bc *BatchCall) Wait(ctx context.Context, k int) ([][]Reply, error) {
	out := make([][]Reply, len(bc.ops))
	for i, c := range bc.ops {
		rs, err := c.Wait(ctx, k)
		if err != nil {
			return out, err
		}
		out[i] = rs
	}
	return out, nil
}

// batchSink splits each member's framed batch reply into per-op replies.
type batchSink struct {
	ops []*Call
}

func newBatchSink(n int) *batchSink {
	bs := &batchSink{ops: make([]*Call, n)}
	for i := range bs.ops {
		bs.ops[i] = newCall()
	}
	return bs
}

func (bs *batchSink) addReply(from simnet.NodeID, data []byte) {
	subs, err := decodeBatchFrame(data)
	if err != nil || len(subs) != len(bs.ops) {
		// A malformed frame from one member: that member's replies are lost,
		// equivalent to a dropped reply message. Other members still satisfy
		// the waiters.
		return
	}
	for i, c := range bs.ops {
		c.addReply(from, subs[i])
	}
}

func (bs *batchSink) setSequenced(members []simnet.NodeID) {
	for _, c := range bs.ops {
		c.setSequenced(members)
	}
}

func (bs *batchSink) memberGone(id simnet.NodeID) {
	for _, c := range bs.ops {
		c.memberGone(id)
	}
}

func (bs *batchSink) fail(err error) {
	for _, c := range bs.ops {
		c.fail(err)
	}
}

// CastBatch broadcasts payloads as one totally ordered group message. Every
// member delivers the ops contiguously, in order, in a single total-order
// slot, and sends one combined reply; the returned BatchCall exposes one
// Call per op. A single-payload batch degenerates to exactly a CastCall.
func (gr *Group) CastBatch(payloads [][]byte) (*BatchCall, error) {
	if len(payloads) == 0 {
		return &BatchCall{}, nil
	}
	var bc *BatchCall
	var err error
	ok := gr.p.doWait(func() {
		g := gr.p.groups[gr.name]
		if g == nil || g.state == stLeft {
			err = ErrNotMember
			return
		}
		if g.state != stMember {
			err = ErrDissolved
			return
		}
		if len(payloads) == 1 {
			bc = &BatchCall{ops: []*Call{g.newCast(payloads[0])}}
			return
		}
		bc = &BatchCall{ops: g.newBatchCast(payloads)}
	})
	if !ok {
		return nil, ErrClosed
	}
	if err != nil {
		return nil, err
	}
	return bc, nil
}

// newBatchCast registers a batched cast and routes it for sequencing. Runs
// on the process loop.
func (g *gstate) newBatchCast(payloads [][]byte) []*Call {
	g.msgIDc++
	id := g.msgIDc
	bs := newBatchSink(len(payloads))
	g.calls[id] = bs
	req := &env{
		Kind: kCastReq, Flags: flagBatchCast, Group: g.name,
		MsgID: id, Origin: g.me(), Inc: g.inc,
		Payload: EncodeBatchFrame(payloads),
	}
	g.outbox[id] = &outboxEntry{req: req, sent: time.Now()}
	g.routeCastReq(req)
	return bs.ops
}

// EncodeBatchFrame packs sub-payloads into one exact-size wire buffer. The
// frame lives in the cast outbox until the sequencer acknowledges it, so it
// must own its allocation (no pooling), but it never reallocates mid-encode.
func EncodeBatchFrame(payloads [][]byte) []byte {
	n := 4
	for _, p := range payloads {
		n += wire.SizeBytes32(p)
	}
	e := wire.NewEncoder(make([]byte, 0, n))
	e.Uint32(uint32(len(payloads)))
	for _, p := range payloads {
		e.Bytes32(p)
	}
	return e.Bytes()
}

// decodeBatchFrame splits a batch frame back into sub-payloads.
func decodeBatchFrame(data []byte) ([][]byte, error) {
	d := wire.NewDecoder(data)
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	out := make([][]byte, 0, min(n, 4096))
	for i := 0; i < n; i++ {
		out = append(out, d.Bytes32())
		if err := d.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
