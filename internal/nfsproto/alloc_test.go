package nfsproto

import (
	"io"
	"testing"

	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// TestHotReadReplyAllocs holds a server connection's reply for a cached
// read — reused reply encoder, ReadRes body, lease trailer, vectored record
// write — to at most 2 allocations per reply in steady state.
func TestHotReadReplyAllocs(t *testing.T) {
	res := ReadRes{Status: OK, Data: make([]byte, 512)}
	lease := Lease{Epoch: 42, Valid: true}
	reply := xdr.NewEncoder(nil)
	var werr error
	allocs := testing.AllocsPerRun(1000, func() {
		reply.Reset()
		reply.Uint32(7) // xid
		reply.Uint32(1) // REPLY
		reply.Uint32(0) // MSG_ACCEPTED
		reply.Uint32(0) // verf flavor
		reply.Uint32(0) // verf len
		reply.Uint32(0) // accept stat
		res.MarshalXDR(reply)
		AppendLease(reply, lease)
		if err := sunrpc.WriteRecord(io.Discard, reply.Bytes()); err != nil {
			werr = err
		}
	})
	if werr != nil {
		t.Fatal(werr)
	}
	if allocs > 2 {
		t.Errorf("hot read reply: %.0f allocs/op, want <= 2", allocs)
	}
}
