package server_test

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/testutil"
)

// lateStore counts commits that arrive after its owner's Close returned.
type lateStore struct {
	store.Store
	closed atomic.Bool
	late   atomic.Int32
}

func (s *lateStore) PutBatch(ops []store.Op) error {
	if s.closed.Load() {
		s.late.Add(1)
	}
	return s.Store.PutBatch(ops)
}

// TestCloseCancelsBlockedWrite: a WRITE whose file group has become
// unreachable, with a failure detector too slow to notice within the test,
// blocks in the core's casts and retries. Close must cancel it and return
// promptly rather than wait out the operation deadline, and the handler
// must not commit to the store after Close returns (a crash hands the store
// to the restarted server).
func TestCloseCancelsBlockedWrite(t *testing.T) {
	iopts := testutil.FastISISOpts()
	iopts.SuspectTimeout = time.Minute // the partition goes unnoticed
	net := simnet.NewNetwork()
	t.Cleanup(net.Close)
	ids := []simnet.NodeID{"srv0", "srv1"}
	var srvs []*server.Server
	var st1 *lateStore
	for i, id := range ids {
		st := &lateStore{Store: store.NewMemStore()}
		if i == 1 {
			st1 = st
		}
		srv, err := server.New(server.Config{
			Transport: net.Attach(id),
			Peers:     ids,
			Store:     st,
			ISIS:      iopts,
			Core:      testutil.FastCoreOpts(),
			InitRoot:  i == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		if _, err := srv.ServeNFS("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		srvs = append(srvs, srv)
	}

	a0, err := agent.Mount([]string{srvs[0].Addr()}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a0.Close()
	if err := a0.WriteFile("/f", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	a1, err := agent.Mount([]string{srvs[1].Addr()}, agent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	h, _, err := a1.Walk("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.ReadFile("/f"); err != nil { // srv1 joins the file group
		t.Fatal(err)
	}

	net.Partition([]simnet.NodeID{"srv0"}, []simnet.NodeID{"srv1"})
	done := make(chan error, 1)
	go func() {
		_, err := a1.Write(h, 0, []byte("world"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("write through the cut-off server returned before Close: %v", err)
	case <-time.After(300 * time.Millisecond):
	}

	start := time.Now()
	srvs[1].Close()
	st1.closed.Store(true)
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Close took %v with a WRITE blocked on an unreachable group, want under 200ms", d)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write through the closed server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still blocked 5s after Close")
	}
	time.Sleep(100 * time.Millisecond)
	if n := st1.late.Load(); n != 0 {
		t.Fatalf("%d commits reached the store after Close returned", n)
	}
}
