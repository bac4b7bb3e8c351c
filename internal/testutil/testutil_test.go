package testutil

import (
	"context"
	"errors"
	"fmt"
	"repro/internal/derr"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// TestCellSetupTeardown: NewCell must bring up n connected segment servers
// that agree on one namespace, and Close must tear everything down.
func TestCellSetupTeardown(t *testing.T) {
	c := NewCell(3)
	defer c.Close()

	if len(c.Nodes) != 3 || len(c.IDs) != 3 {
		t.Fatalf("cell has %d nodes / %d ids, want 3/3", len(c.Nodes), len(c.IDs))
	}
	for i, nd := range c.Nodes {
		if nd == nil || nd.Core == nil || nd.Proc == nil || nd.Store == nil {
			t.Fatalf("node %d incompletely wired: %+v", i, nd)
		}
		if nd.ID != c.IDs[i] {
			t.Errorf("node %d id %q != IDs[%d] %q", i, nd.ID, i, c.IDs[i])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	id, err := c.Nodes[0].Core.Create(ctx, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("shared")}); err != nil {
		t.Fatal(err)
	}
	// Another server sees the segment: one cell, one namespace.
	if err := derr.RetryIf(10*time.Second, core.IsRetryable, func() error {
		data, _, err := c.Nodes[2].Core.Read(ctx, id, 0, 0, -1)
		if err == nil && string(data) != "shared" {
			return fmt.Errorf("read %q, want %q", data, "shared")
		}
		return err
	}); err != nil {
		t.Fatalf("read via third server: %v", err)
	}
}

// TestCellCrashRestart: Crash must hand back the node's store and empty the
// slot; Restart must rebuild the node around that store and rejoin it.
func TestCellCrashRestart(t *testing.T) {
	c := NewCell(3)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	id, err := c.Nodes[0].Core.Create(ctx, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("before crash")}); err != nil {
		t.Fatal(err)
	}

	st := c.Crash(1)
	if st == nil {
		t.Fatal("Crash returned no store")
	}
	if c.Nodes[1] != nil {
		t.Error("crashed node still in Nodes")
	}

	nd := c.Restart(1, st)
	if c.Nodes[1] != nd || nd.Store != st {
		t.Error("Restart did not reinstall the node around its old store")
	}
	// The rejoined node serves the pre-crash segment (retried while the
	// view change and rejoin settle).
	if err := derr.RetryIf(20*time.Second, func(error) bool { return true }, func() error {
		data, _, err := nd.Core.Read(ctx, id, 0, 0, -1)
		if err == nil && string(data) != "before crash" {
			return fmt.Errorf("read %q, want %q", data, "before crash")
		}
		return err
	}); err != nil {
		t.Fatalf("read via restarted node: %v", err)
	}
}

// TestCellRestartFreshStore: Restart with a new store is the wiped-machine
// path the chaos tests use.
func TestCellRestartFreshStore(t *testing.T) {
	c := NewCell(2)
	defer c.Close()
	c.Crash(1)
	nd := c.Restart(1, store.NewMemStore())
	if nd == nil || c.Nodes[1] != nd {
		t.Fatal("Restart with a fresh store failed to install the node")
	}
}

func TestRetryStopsOnSuccess(t *testing.T) {
	calls := 0
	err := derr.RetryIf(10*time.Second, core.IsRetryable, func() error {
		calls++
		if calls < 3 {
			return core.ErrBusy
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want nil after exactly 3", err, calls)
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := derr.RetryIf(10*time.Second, core.IsRetryable, func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want boom after exactly 1", err, calls)
	}
}

func TestRetryHonorsDeadline(t *testing.T) {
	start := time.Now()
	err := derr.RetryIf(60*time.Millisecond, func(error) bool { return true }, func() error {
		return core.ErrBusy
	})
	if !errors.Is(err, core.ErrBusy) {
		t.Fatalf("err = %v, want the last transient error", err)
	}
	if d := time.Since(start); d < 60*time.Millisecond || d > 2*time.Second {
		t.Errorf("retry loop ran for %v, want ~60ms", d)
	}
}

func TestRetryWrappedErrors(t *testing.T) {
	calls := 0
	err := derr.RetryIf(10*time.Second, core.IsRetryable, func() error {
		calls++
		if calls < 2 {
			return fmt.Errorf("setup step: %w", core.ErrBusy) // wrapped transient
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("err=%v calls=%d: wrapped retryable errors must be retried", err, calls)
	}
}
