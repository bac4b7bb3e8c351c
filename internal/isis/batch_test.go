package isis

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func join3(t *testing.T, c *cell) (*Group, *Group, *Group, []*testApp) {
	t.Helper()
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	g0, err := c.procs[0].Create("g", apps[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.procs[2].Join(ctx, "g", apps[2])
	if err != nil {
		t.Fatal(err)
	}
	return g0, g1, g2, apps
}

// TestCastBatchPerOpReplies checks that one batched cast produces per-op
// replies from every member, in op order.
func TestCastBatchPerOpReplies(t *testing.T) {
	c := newCell(t, 3)
	_, g1, _, apps := join3(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	payloads := [][]byte{[]byte("b0"), []byte("b1"), []byte("b2"), []byte("b3")}
	bc, err := g1.CastBatch(payloads)
	if err != nil {
		t.Fatal(err)
	}
	if bc.Len() != 4 {
		t.Fatalf("Len = %d", bc.Len())
	}
	all, err := bc.Wait(ctx, All)
	if err != nil {
		t.Fatal(err)
	}
	for i, replies := range all {
		if len(replies) != 3 {
			t.Fatalf("op %d: %d replies", i, len(replies))
		}
		for _, r := range replies {
			want := string(r.From) + ":" + string(payloads[i])
			if string(r.Data) != want {
				t.Fatalf("op %d reply from %s = %q, want %q", i, r.From, r.Data, want)
			}
		}
	}
	// Every member delivered the ops contiguously and in batch order.
	for _, app := range apps {
		got := strings.Join(app.deliveredList(), ",")
		if !strings.Contains(got, "b0,b1,b2,b3") {
			t.Fatalf("%s delivered %q; batch not contiguous/in order", app.id, got)
		}
	}
}

// TestCastBatchTotalOrder checks that concurrent batches from different
// origins never interleave: each batch occupies one total-order slot, so all
// members see identical delivery sequences with each batch contiguous.
func TestCastBatchTotalOrder(t *testing.T) {
	c := newCell(t, 3)
	g0, g1, g2, apps := join3(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	groups := []*Group{g0, g1, g2}
	const rounds = 20
	var wg sync.WaitGroup
	for w, g := range groups {
		wg.Add(1)
		go func(w int, g *Group) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var payloads [][]byte
				for i := 0; i < 3; i++ {
					payloads = append(payloads, fmt.Appendf(nil, "w%d-r%d-%d", w, r, i))
				}
				bc, err := g.CastBatch(payloads)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := bc.Wait(ctx, All); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, g)
	}
	wg.Wait()

	ref := apps[0].deliveredList()
	if len(ref) != 3*rounds*3 {
		t.Fatalf("delivered %d ops, want %d", len(ref), 3*rounds*3)
	}
	for _, app := range apps[1:] {
		got := app.deliveredList()
		if strings.Join(got, ",") != strings.Join(ref, ",") {
			t.Fatalf("delivery order diverges between members")
		}
	}
	// Each 3-op batch is contiguous in the common order.
	for i := 0; i < len(ref); i += 3 {
		prefix := ref[i][:strings.LastIndex(ref[i], "-")]
		for j := 0; j < 3; j++ {
			if want := fmt.Sprintf("%s-%d", prefix, j); ref[i+j] != want {
				t.Fatalf("batch interleaved at %d: %v", i, ref[i:i+3])
			}
		}
	}
}

// TestCastBatchSurvivesMemberFailure checks that a stream of batched casts
// keeps completing across a view change that removes a failed member: the
// per-op calls must not hang on replies from the dead node.
func TestCastBatchSurvivesMemberFailure(t *testing.T) {
	c := newCell(t, 3)
	g0, _, _, apps := join3(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	crashed := false
	for r := 0; r < 30; r++ {
		payloads := [][]byte{
			fmt.Appendf(nil, "r%d-a", r),
			fmt.Appendf(nil, "r%d-b", r),
		}
		bc, err := g0.CastBatch(payloads)
		if err != nil {
			t.Fatal(err)
		}
		if r == 10 && !crashed {
			crashed = true
			c.net.Detach(c.ids[2])
		}
		if _, err := bc.Wait(ctx, All); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	waitFor(t, 5*time.Second, "view shrinks to 2", func() bool {
		return len(g0.View().Members) == 2
	})
	// The survivor delivered every op in order.
	got := strings.Join(apps[1].deliveredList(), ",")
	for r := 0; r < 30; r++ {
		if !strings.Contains(got, fmt.Sprintf("r%d-a,r%d-b", r, r)) {
			t.Fatalf("survivor missing contiguous batch r%d: %q", r, got)
		}
	}
}

// TestEncodeBatchFrameAllocs holds staging a run of write payloads into one
// batch cast frame to at most 2 allocations: the frame stays in the cast
// outbox, so its one owned allocation is the floor.
func TestEncodeBatchFrameAllocs(t *testing.T) {
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = make([]byte, 512)
	}
	var frame []byte
	allocs := testing.AllocsPerRun(1000, func() {
		frame = EncodeBatchFrame(payloads)
	})
	if len(frame) == 0 {
		t.Fatal("empty frame")
	}
	if allocs > 2 {
		t.Errorf("batched write frame: %.0f allocs/op, want <= 2", allocs)
	}
}
