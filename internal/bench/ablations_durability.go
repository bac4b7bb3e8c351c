package bench

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/version"
)

// bucketData mirrors the core server's replica-data bucket name; the rejoin
// benchmark reads the victim's store directly to detect refresh completion.
const bucketData = "data"

// This file holds the durability ablations: A7 quantifies what group commit
// buys over per-key persistence (ops per fsync), and A8 measures rejoin cost
// — bytes shipped and wall time for a crashed server to rejoin its groups —
// incrementally (checkpoint + log recovery, only moved segments pulled)
// versus a full state transfer.

func init() {
	Experiments["A7"] = RunA7
	Experiments["A8"] = RunA8
	Order = append(Order, "A7", "A8")
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// RunA7 measures ops/fsync without vs with group commit. The store-level
// rows are deterministic: the same 800 ops committed to a LogStore one op
// per PutBatch — what a single-op cast delivery pays — and then eight ops
// per PutBatch, each batch one frame under one fsync. The cell rows show the
// same machinery end-to-end: three log-backed servers applying totally
// ordered casts, with write coalescing turning concurrent writers into
// multi-op batches that the store group-commits.
func RunA7() (*Table, error) {
	t := &Table{
		ID:     "A7",
		Title:  "ablation: group commit — ops per fsync, one op per commit vs batched commits",
		Header: []string{"path", "batch", "ops", "fsyncs", "ops/fsync"},
	}

	// Store-level: the same ops, committed singly and in batches.
	const totalOps = 800
	for _, batchOps := range []int{1, 8} {
		dir, err := os.MkdirTemp("", "a7-log-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		ls, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < totalOps/batchOps; i++ {
			ops := make([]store.Op, batchOps)
			for j := range ops {
				ops[j] = store.Op{
					Bucket: "data",
					Key:    fmt.Sprintf("k%d", (i*batchOps+j)%64),
					Val:    []byte("group-commit-ablation-payload"),
				}
			}
			if err := ls.PutBatch(ops); err != nil {
				ls.Close()
				return nil, err
			}
		}
		st := ls.Stats()
		ls.Close()
		label := "log, one op per commit"
		if batchOps > 1 {
			label = "log group-commit"
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprint(batchOps),
			fmt.Sprint(st.Ops), fmt.Sprint(st.Syncs),
			fmt.Sprintf("%.2f", float64(st.Ops)/float64(st.Syncs))})
	}

	// End-to-end: a 3-server log-backed cell, 8 concurrent writers on one
	// segment, coalescing off vs on. Each delivered cast is one PutBatch at
	// every member; coalescing packs more server ops into each cast.
	const writers = 8
	const writesPerWriter = 50
	for _, coalesce := range []bool{false, true} {
		copts := testutil.FastCoreOpts()
		copts.Piggyback = true
		copts.CoalesceWrites = coalesce
		c, id, logs, err := logCell(3, copts, 3)
		if err != nil {
			return nil, err
		}
		cx, cancel := ctx()
		base := make([]store.LogStats, len(logs))
		for i, l := range logs {
			base[i] = l.Stats()
		}
		var wg sync.WaitGroup
		errCh := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				payload := []byte("durability-ablation-write")
				for k := 0; k < writesPerWriter; k++ {
					if _, err := c.Nodes[0].Core.Write(cx, id, core.WriteReq{Off: int64(w * 32), Data: payload}); err != nil {
						errCh <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		var ops, syncs uint64
		for i, l := range logs {
			st := l.Stats()
			ops += st.Ops - base[i].Ops
			syncs += st.Syncs - base[i].Syncs
		}
		cancel()
		c.Close()
		select {
		case err := <-errCh:
			return nil, err
		default:
		}
		label := "cell e2e, coalescing off"
		if coalesce {
			label = "cell e2e, coalescing on"
		}
		t.Rows = append(t.Rows, []string{label, "-", fmt.Sprint(ops),
			fmt.Sprint(syncs), fmt.Sprintf("%.2f", float64(ops)/float64(syncs))})
	}

	t.Notes = append(t.Notes,
		"committing one op per PutBatch pays one fsync per op; the log frames",
		"an 8-op batch as one CRC-protected record and pays exactly 1 — an 8x",
		"ops/fsync improvement.",
		"the cell rows count every store op (meta + replica data) at all 3",
		"members: coalesced casts group-commit whole write runs per fsync")
	return t, nil
}

// logCell builds a cell of n servers all backed by LogStores, with one
// seeded segment replicated on `replicas` members.
func logCell(n int, copts core.Options, replicas int) (*testutil.Cell, core.SegID, []*store.LogStore, error) {
	c := testutil.NewCellOpts(n, testutil.FastISISOpts(), copts)
	logs := make([]*store.LogStore, n)
	for i := 0; i < n; i++ {
		dir, err := os.MkdirTemp("", "a7-cell-*")
		if err != nil {
			c.Close()
			return nil, 0, nil, err
		}
		ls, err := store.OpenLog(dir, store.LogOptions{})
		if err != nil {
			c.Close()
			return nil, 0, nil, err
		}
		c.Crash(i)
		c.Restart(i, ls)
		logs[i] = ls
	}
	cx, cancel := ctx()
	defer cancel()
	params := core.DefaultParams()
	params.MinReplicas = replicas
	var id core.SegID
	err := retryCore(func() error {
		var err error
		id, err = c.Nodes[0].Core.Create(cx, params)
		return err
	})
	if err != nil {
		c.Close()
		return nil, 0, nil, err
	}
	if _, err := c.Nodes[0].Core.Write(cx, id, core.WriteReq{Data: []byte("seed"), Truncate: true}); err != nil {
		c.Close()
		return nil, 0, nil, err
	}
	for r := 1; r < replicas; r++ {
		target := c.IDs[r]
		if err := retryCore(func() error {
			return c.Nodes[0].Core.AddReplica(cx, id, 0, target)
		}); err != nil {
			c.Close()
			return nil, 0, nil, err
		}
	}
	if err := waitStable(cx, c.Nodes[0].Core, id); err != nil {
		c.Close()
		return nil, 0, nil, err
	}
	return c, id, logs, nil
}

// forEach runs f(0..n-1) on a small worker pool and returns the first error.
func forEach(n, workers int, f func(i int) error) error {
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := f(i); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// replicaKey is the store key under which a server persists its local copy
// of a segment's replica data (segment id / major, both hex).
func replicaKey(id core.SegID) string {
	return fmt.Sprintf("%016x/%016x", uint64(id), uint64(version.InitialMajor))
}

// snapshotRecords reads the victim's persisted replica record for each
// segment; a missing record is recorded as nil.
func snapshotRecords(ls *store.LogStore, segs []core.SegID) ([][]byte, error) {
	vals := make([][]byte, len(segs))
	for i, id := range segs {
		v, ok, err := ls.Get(bucketData, replicaKey(id))
		if err != nil {
			return nil, err
		}
		if ok {
			vals[i] = v
		}
	}
	return vals, nil
}

// RunA8 is the rejoin benchmark: a server in an N-segment group (default
// 400; DECEIT_REJOIN_SEGS overrides — `make rejoin-bench` runs 10000)
// crashes, a fraction of segments take writes while it is down, and it
// rejoins by recovering its checkpoint+log store and pulling only what
// moved. The full-transfer baseline is the same rejoin with every segment
// moved — what a non-incremental recovery would re-ship unconditionally.
func RunA8() (*Table, error) {
	nSegs := envInt("DECEIT_REJOIN_SEGS", 400)
	dirtyN := nSegs / 20 // 5%
	if dirtyN < 1 {
		dirtyN = 1
	}
	payload := make([]byte, 8192)
	for i := range payload {
		payload[i] = byte(i)
	}

	t := &Table{
		ID:    "A8",
		Title: fmt.Sprintf("rejoin benchmark: crashed server recovers checkpoint+log and rejoins a %d-segment group", nSegs),
		Header: []string{"rejoin", "segments moved", "data bytes shipped", "net bytes",
			"revalidated", "rejoin time"},
	}

	copts := testutil.FastCoreOpts()
	copts.Piggyback = true
	params := core.DefaultParams()
	params.MinReplicas = 3
	params.Stability = false

	c := testutil.NewCellOpts(3, testutil.FastISISOpts(), copts)
	defer c.Close()
	const victim = 2
	vdir, err := os.MkdirTemp("", "a8-victim-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(vdir)
	vlog, err := store.OpenLog(vdir, store.LogOptions{})
	if err != nil {
		return nil, err
	}
	c.Crash(victim)
	c.Restart(victim, vlog)

	cx, cancel := ctx()
	defer cancel()
	segs := make([]core.SegID, nSegs)
	if err := forEach(nSegs, 16, func(i int) error {
		var id core.SegID
		if err := retryCore(func() error {
			var err error
			id, err = c.Nodes[0].Core.Create(cx, params)
			return err
		}); err != nil {
			return fmt.Errorf("create seg %d: %w", i, err)
		}
		segs[i] = id
		if err := retryCore(func() error {
			_, err := c.Nodes[0].Core.Write(cx, id, core.WriteReq{Data: payload, Truncate: true})
			return err
		}); err != nil {
			return fmt.Errorf("seed seg %d: %w", i, err)
		}
		for r := 1; r < 3; r++ {
			target := c.IDs[r]
			if err := retryCore(func() error {
				return c.Nodes[0].Core.AddReplica(cx, id, 0, target)
			}); err != nil {
				return fmt.Errorf("replicate seg %d: %w", i, err)
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// The victim holds a current replica of every segment once its store has
	// persisted a data record for each; heartbeats never quiesce the network
	// byte counter, so completion is detected on store state, not traffic.
	limit := 2*time.Minute + time.Duration(nSegs)*50*time.Millisecond
	{
		deadline := time.Now().Add(limit)
		for {
			vals, err := snapshotRecords(vlog, segs)
			if err != nil {
				return nil, err
			}
			missing := 0
			for _, v := range vals {
				if v == nil {
					missing++
				}
			}
			if missing == 0 {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("seeding: victim still missing %d/%d replica records", missing, nSegs)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// One rejoin round: crash the victim, move `moved` segments while it is
	// down, recover its store from disk and measure the rejoin. The rejoin is
	// complete when the victim has re-persisted a changed replica record for
	// every moved segment — each refresh rewrites the record with the new
	// version pair, so a byte-for-byte change is the completion signal.
	round := func(moved int) (core.TransferStats, uint64, time.Duration, error) {
		var zero core.TransferStats
		st := c.Crash(victim)
		st.Close()
		if err := forEach(moved, 16, func(i int) error {
			id := segs[i]
			if err := retryCore(func() error {
				_, err := c.Nodes[0].Core.Write(cx, id, core.WriteReq{Data: payload, Truncate: true})
				return err
			}); err != nil {
				return fmt.Errorf("dirty seg %d: %w", i, err)
			}
			return nil
		}); err != nil {
			return zero, 0, 0, err
		}
		time.Sleep(300 * time.Millisecond) // let the surviving pair settle

		recovered, err := store.OpenLog(vdir, store.LogOptions{})
		if err != nil {
			return zero, 0, 0, err
		}
		before, err := snapshotRecords(recovered, segs[:moved])
		if err != nil {
			return zero, 0, 0, err
		}
		c.Net.ResetStats()
		start := time.Now()
		c.Restart(victim, recovered)
		pending := make(map[int]bool, moved)
		for i := 0; i < moved; i++ {
			pending[i] = true
		}
		deadline := time.Now().Add(limit)
		for len(pending) > 0 {
			if time.Now().After(deadline) {
				return zero, 0, 0, fmt.Errorf("rejoin(%d): %d segments never refreshed", moved, len(pending))
			}
			for i := range pending {
				v, ok, err := recovered.Get(bucketData, replicaKey(segs[i]))
				if err != nil {
					return zero, 0, 0, err
				}
				if !ok || !bytes.Equal(v, before[i]) {
					delete(pending, i)
				}
			}
			if len(pending) > 0 {
				time.Sleep(25 * time.Millisecond)
			}
		}
		elapsed := time.Since(start)
		// Short grace so trailing revalidation traffic for unmoved segments
		// is still charged to the round before the counters are read. The
		// restarted victim's server is fresh, so its TransferStats count
		// exactly the data this rejoin pulled.
		time.Sleep(300 * time.Millisecond)
		return c.Nodes[victim].Core.TransferStats(), c.Net.Stats().Bytes, elapsed, nil
	}

	incXfer, incNet, incTime, err := round(dirtyN)
	if err != nil {
		return nil, err
	}
	fullXfer, fullNet, fullTime, err := round(nSegs)
	if err != nil {
		return nil, err
	}

	t.Rows = append(t.Rows,
		[]string{"incremental", fmt.Sprintf("%d/%d", dirtyN, nSegs),
			fmt.Sprint(incXfer.BytesIn), fmt.Sprint(incNet),
			fmt.Sprint(incXfer.Unchanged), ms(incTime)},
		[]string{"full (all moved)", fmt.Sprintf("%d/%d", nSegs, nSegs),
			fmt.Sprint(fullXfer.BytesIn), fmt.Sprint(fullNet),
			fmt.Sprint(fullXfer.Unchanged), ms(fullTime)},
	)
	ratio := float64(fullXfer.BytesIn) / float64(incXfer.BytesIn)
	t.Notes = append(t.Notes,
		fmt.Sprintf("incremental rejoin shipped %.1fx less replica data than the full transfer", ratio),
		"the rejoining server recovers every segment from its checkpoint+log,",
		"reconciles group metadata, and pulls replica data only for segments",
		"whose version pair moved while it was down; recovered replicas whose",
		"pair still matches are certified current by the reconcile with no",
		"fetch at all (fetches that race a current copy answer Unchanged).",
		"net bytes includes per-segment group reconcile traffic, paid equally",
		"by both rounds; data bytes is the state-transfer volume itself")
	return t, nil
}
