package isis

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// testApp is a recording App implementation.
type testApp struct {
	mu        sync.Mutex
	id        string
	delivered []string
	views     []View
	reasons   []ViewReason
	restored  []byte
	merged    [][]byte
}

func (a *testApp) Deliver(from simnet.NodeID, payload []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.delivered = append(a.delivered, string(payload))
	return []byte(a.id + ":" + string(payload))
}

func (a *testApp) ViewChange(v View, r ViewReason) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.views = append(a.views, v)
	a.reasons = append(a.reasons, r)
}

func (a *testApp) Snapshot() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return []byte(strings.Join(a.delivered, ","))
}

func (a *testApp) Restore(snap []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.restored = append([]byte(nil), snap...)
	if len(snap) > 0 {
		a.delivered = strings.Split(string(snap), ",")
	}
}

func (a *testApp) Merge(snap []byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.merged = append(a.merged, append([]byte(nil), snap...))
}

func (a *testApp) deliveredList() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.delivered...)
}

func (a *testApp) lastView() View {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.views) == 0 {
		return View{}
	}
	return a.views[len(a.views)-1]
}

func fastOpts() Options {
	return Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    80 * time.Millisecond,
		RetransInterval:   25 * time.Millisecond,
		ProbeInterval:     60 * time.Millisecond,
	}
}

type cell struct {
	net   *simnet.Network
	procs []*Process
	ids   []simnet.NodeID
}

func newCell(t *testing.T, n int) *cell {
	t.Helper()
	c := &cell{net: simnet.NewNetwork()}
	for i := 0; i < n; i++ {
		c.ids = append(c.ids, simnet.NodeID(fmt.Sprintf("n%d", i)))
	}
	for i := 0; i < n; i++ {
		ep := c.net.Attach(c.ids[i])
		c.procs = append(c.procs, NewProcess(ep, c.ids, fastOpts()))
	}
	t.Cleanup(func() {
		for _, p := range c.procs {
			p.Close()
		}
		c.net.Close()
	})
	return c
}

func waitFor(t *testing.T, d time.Duration, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if pred() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCreateAndSelfCast(t *testing.T) {
	c := newCell(t, 1)
	app := &testApp{id: "n0"}
	g, err := c.procs[0].Create("g", app)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	replies, err := g.Cast(ctx, []byte("hello"), All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 || string(replies[0].Data) != "n0:hello" {
		t.Fatalf("replies = %v", replies)
	}
	if got := app.deliveredList(); len(got) != 1 || got[0] != "hello" {
		t.Fatalf("delivered = %v", got)
	}
}

func TestJoinStateTransferAndCast(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	g0, err := c.procs[0].Create("g", apps[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Seed some state before anyone joins.
	if _, err := g0.Cast(ctx, []byte("pre1"), All); err != nil {
		t.Fatal(err)
	}
	if _, err := g0.Cast(ctx, []byte("pre2"), All); err != nil {
		t.Fatal(err)
	}

	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	// State transfer must have carried the pre-join messages.
	waitFor(t, 2*time.Second, "restore", func() bool {
		apps[1].mu.Lock()
		defer apps[1].mu.Unlock()
		return string(apps[1].restored) == "pre1,pre2"
	})

	g2, err := c.procs[2].Join(ctx, "g", apps[2])
	if err != nil {
		t.Fatal(err)
	}

	// A cast from the newest member must reach all three and gather all
	// three replies.
	replies, err := g2.Cast(ctx, []byte("m"), All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("got %d replies: %v", len(replies), replies)
	}
	seen := map[string]bool{}
	for _, r := range replies {
		seen[string(r.Data)] = true
	}
	for _, want := range []string{"n0:m", "n1:m", "n2:m"} {
		if !seen[want] {
			t.Errorf("missing reply %q in %v", want, seen)
		}
	}
	if v := g1.View(); len(v.Members) != 3 {
		t.Errorf("view = %v", v)
	}
	_ = g0
}

func TestTotalOrderUnderConcurrency(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	g0, err := c.procs[0].Create("g", apps[0])
	if err != nil {
		t.Fatal(err)
	}
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.procs[2].Join(ctx, "g", apps[2])
	if err != nil {
		t.Fatal(err)
	}

	const per = 30
	groups := []*Group{g0, g1, g2}
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g *Group) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				if _, err := g.Cast(ctx, []byte(fmt.Sprintf("c%d-%d", i, j)), 1); err != nil {
					t.Errorf("cast: %v", err)
					return
				}
			}
		}(i, g)
	}
	wg.Wait()

	total := 3 * per
	waitFor(t, 5*time.Second, "all deliveries", func() bool {
		for _, a := range apps {
			if len(a.deliveredList()) != total {
				return false
			}
		}
		return true
	})
	d0 := apps[0].deliveredList()
	for i := 1; i < 3; i++ {
		di := apps[i].deliveredList()
		for j := range d0 {
			if d0[j] != di[j] {
				t.Fatalf("order differs at %d: n0=%q n%d=%q", j, d0[j], i, di[j])
			}
		}
	}
}

func TestLeaveShrinksView(t *testing.T) {
	c := newCell(t, 2)
	apps := []*testApp{{id: "n0"}, {id: "n1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "view shrink", func() bool {
		return len(g0.View().Members) == 1
	})
	// The survivor can still cast.
	replies, err := g0.Cast(ctx, []byte("after"), All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 1 {
		t.Fatalf("replies = %v", replies)
	}
	// A second join by the leaver works.
	g1b, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(g1b.View().Members) != 2 {
		t.Errorf("rejoin view = %v", g1b.View())
	}
}

func TestCoordinatorLeaveHandsOff(t *testing.T) {
	c := newCell(t, 2)
	apps := []*testApp{{id: "n0"}, {id: "n1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := g0.Leave(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "handoff", func() bool {
		v := g1.View()
		return len(v.Members) == 1 && v.Coordinator() == "n1"
	})
	if _, err := g1.Cast(ctx, []byte("solo"), All); err != nil {
		t.Fatal(err)
	}
}

func TestMemberCrashDetected(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	if _, err := c.procs[1].Join(ctx, "g", apps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.procs[2].Join(ctx, "g", apps[2]); err != nil {
		t.Fatal(err)
	}

	// Crash the non-coordinator n2.
	c.procs[2].Close()
	c.net.Detach("n2")

	waitFor(t, 3*time.Second, "failure view", func() bool {
		v := g0.View()
		return len(v.Members) == 2 && !v.Contains("n2")
	})
	// Casts complete with the survivors' replies.
	replies, err := g0.Cast(ctx, []byte("post-crash"), All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %v", replies)
	}
}

func TestCoordinatorCrashRecovery(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.procs[2].Join(ctx, "g", apps[2])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g0.Cast(ctx, []byte("before"), All); err != nil {
		t.Fatal(err)
	}

	// Crash the coordinator (the group creator, n0).
	c.procs[0].Close()
	c.net.Detach("n0")

	waitFor(t, 3*time.Second, "recovery view", func() bool {
		v := g1.View()
		return len(v.Members) == 2 && v.Coordinator() == "n1"
	})
	// Survivors keep identical histories and can continue casting.
	replies, err := g2.Cast(ctx, []byte("after"), All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %v", replies)
	}
	waitFor(t, 2*time.Second, "post-recovery delivery", func() bool {
		d1, d2 := apps[1].deliveredList(), apps[2].deliveredList()
		return len(d1) == 2 && len(d2) == 2 && d1[1] == "after" && d2[1] == "after"
	})
}

func TestCastKReplies(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	if _, err := c.procs[1].Join(ctx, "g", apps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.procs[2].Join(ctx, "g", apps[2]); err != nil {
		t.Fatal(err)
	}

	// k=1 returns promptly with at least one reply.
	replies, err := g0.Cast(ctx, []byte("k1"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) < 1 {
		t.Fatalf("k=1 returned %d replies", len(replies))
	}

	// k greater than membership degrades to "all" instead of hanging.
	replies, err = g0.Cast(ctx, []byte("k99"), 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("k=99 returned %d replies, want 3", len(replies))
	}

	// CastCall: wait for 1, then observe all replies arrive on the tracker.
	call, err := g0.CastCall([]byte("track"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := call.Wait(ctx, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-call.Done():
	case <-ctx.Done():
		t.Fatal("tracker never completed")
	}
	if got := len(call.Replies()); got != 3 {
		t.Fatalf("tracker has %d replies, want 3", got)
	}
}

func TestCastAsyncIsOrdered(t *testing.T) {
	c := newCell(t, 2)
	apps := []*testApp{{id: "n0"}, {id: "n1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	if _, err := c.procs[1].Join(ctx, "g", apps[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := g0.CastAsync([]byte(fmt.Sprintf("a%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, "async deliveries", func() bool {
		return len(apps[1].deliveredList()) == 20
	})
	d := apps[1].deliveredList()
	for i := 0; i < 20; i++ {
		if d[i] != fmt.Sprintf("a%02d", i) {
			t.Fatalf("order broken at %d: %v", i, d)
		}
	}
}

func TestLookupAndJoin(t *testing.T) {
	c := newCell(t, 2)
	apps := []*testApp{{id: "n0"}, {id: "n1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Lookup of a nonexistent group fails.
	sctx, scancel := context.WithTimeout(ctx, 200*time.Millisecond)
	if _, err := c.procs[0].Lookup(sctx, "nope"); err != ErrNoSuchGroup {
		t.Fatalf("lookup err = %v", err)
	}
	scancel()

	// Lookup finds a created group, and then the member that joined it.
	g0, err := c.procs[0].Create("g", apps[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(g0.View().Members) != 1 {
		t.Fatalf("created view = %v", g0.View())
	}
	members, err := c.procs[1].Lookup(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 {
		t.Fatalf("lookup members = %v", members)
	}
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, "joined view", func() bool {
		return len(g1.View().Members) == 2
	})

	members, err = c.procs[1].Lookup(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("lookup members = %v", members)
	}
}

func TestPartitionDivergeAndMerge(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	g1, err := c.procs[1].Join(ctx, "g", apps[1])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.procs[2].Join(ctx, "g", apps[2])
	if err != nil {
		t.Fatal(err)
	}

	// Partition n2 away from the majority.
	c.net.Partition([]simnet.NodeID{"n0", "n1"}, []simnet.NodeID{"n2"})

	waitFor(t, 3*time.Second, "majority side view", func() bool {
		return len(g0.View().Members) == 2
	})
	waitFor(t, 3*time.Second, "minority side view", func() bool {
		return len(g2.View().Members) == 1
	})

	// Both sides keep operating independently.
	if _, err := g0.Cast(ctx, []byte("maj"), All); err != nil {
		t.Fatalf("majority cast: %v", err)
	}
	if _, err := g2.Cast(ctx, []byte("min"), All); err != nil {
		t.Fatalf("minority cast: %v", err)
	}

	// Heal: the minority side must dissolve and rejoin with Merge.
	c.net.Heal()
	waitFor(t, 5*time.Second, "merged view", func() bool {
		return len(g0.View().Members) == 3 && len(g2.View().Members) == 3
	})
	apps[2].mu.Lock()
	merges := len(apps[2].merged)
	apps[2].mu.Unlock()
	if merges == 0 {
		t.Error("minority app never received Merge")
	}

	// The merged group is fully operational.
	replies, err := g1.Cast(ctx, []byte("joined"), All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 3 {
		t.Fatalf("post-merge replies = %v", replies)
	}
}

func TestDeliveryUnderMessageLoss(t *testing.T) {
	c := newCell(t, 3)
	apps := []*testApp{{id: "n0"}, {id: "n1"}, {id: "n2"}}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	if _, err := c.procs[1].Join(ctx, "g", apps[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.procs[2].Join(ctx, "g", apps[2]); err != nil {
		t.Fatal(err)
	}

	c.net.Seed(7)
	c.net.SetLoss(0.05)
	defer c.net.SetLoss(0)
	const k = 25
	for i := 0; i < k; i++ {
		if _, err := g0.Cast(ctx, []byte(fmt.Sprintf("l%02d", i)), 1); err != nil {
			t.Fatalf("cast %d: %v", i, err)
		}
	}
	c.net.SetLoss(0)
	waitFor(t, 10*time.Second, "lossy deliveries", func() bool {
		return len(apps[1].deliveredList()) >= k && len(apps[2].deliveredList()) >= k
	})
	d1 := apps[1].deliveredList()
	d2 := apps[2].deliveredList()
	for i := 0; i < k; i++ {
		want := fmt.Sprintf("l%02d", i)
		if d1[i] != want || d2[i] != want {
			t.Fatalf("loss broke order at %d: %q / %q", i, d1[i], d2[i])
		}
	}
}

func TestReplyPayloadIntegrity(t *testing.T) {
	c := newCell(t, 2)
	apps := []*testApp{{id: "n0"}, {id: "n1"}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	g0, _ := c.procs[0].Create("g", apps[0])
	if _, err := c.procs[1].Join(ctx, "g", apps[1]); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 10_000)
	replies, err := g0.Cast(ctx, payload, All)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 {
		t.Fatalf("replies = %d", len(replies))
	}
	for _, r := range replies {
		if !bytes.HasSuffix(r.Data, payload) {
			t.Fatalf("reply from %s corrupted (len %d)", r.From, len(r.Data))
		}
	}
}

func TestGroupHandleAfterProcessClose(t *testing.T) {
	c := newCell(t, 1)
	app := &testApp{id: "n0"}
	g, err := c.procs[0].Create("g", app)
	if err != nil {
		t.Fatal(err)
	}
	c.procs[0].Close()
	if _, err := g.CastCall([]byte("x")); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestViewReasonStrings(t *testing.T) {
	for r, want := range map[ViewReason]string{
		ReasonJoin: "join", ReasonLeave: "leave", ReasonFailure: "failure",
		ReasonMerge: "merge", ReasonDissolve: "dissolve", ViewReason(99): "unknown",
	} {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", r, got, want)
		}
	}
}

func TestDoubleCreateFails(t *testing.T) {
	c := newCell(t, 1)
	app := &testApp{id: "n0"}
	if _, err := c.procs[0].Create("g", app); err != nil {
		t.Fatal(err)
	}
	if _, err := c.procs[0].Create("g", app); err == nil {
		t.Fatal("second Create succeeded")
	}
}
