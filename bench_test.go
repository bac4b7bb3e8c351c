// Package repro's root benchmarks regenerate the Deceit paper's evaluation
// as testing.B benchmarks, one family per table/figure (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for the expected shapes). The
// richer, table-printing forms of the same experiments live in
// cmd/deceit-bench.
package repro

import (
	"context"
	"fmt"
	"repro/internal/derr"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/testnfs"
	"repro/internal/testutil"
)

func benchCtx(b *testing.B) context.Context {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	b.Cleanup(cancel)
	return ctx
}

// setupSeg creates a cell and one segment with the given parameters and
// replica placement.
func setupSeg(b *testing.B, nodes int, params core.Params, replicas int) (*testutil.Cell, core.SegID) {
	b.Helper()
	c := testutil.NewCell(nodes)
	b.Cleanup(c.Close)
	ctx := benchCtx(b)
	id, err := c.Nodes[0].Core.Create(ctx, params)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("seed")}); err != nil {
		b.Fatal(err)
	}
	for r := 1; r < replicas; r++ {
		addReplicaRetry(b, ctx, c.Nodes[0].Core, id, c.IDs[r])
	}
	return c, id
}

// BenchmarkT1UpdateSequence measures the paper's Table 1 path: each
// iteration alternates the writing server, so every update pays token
// acquisition, update distribution and reply collection.
func BenchmarkT1UpdateSequence(b *testing.B) {
	params := core.DefaultParams()
	params.Stability = true
	c, id := setupSeg(b, 3, params, 2)
	ctx := benchCtx(b)
	payload := []byte("update-payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := c.Nodes[i%2].Core
		if _, err := srv.Write(ctx, id, core.WriteReq{Off: 0, Data: payload}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkF2 measures Figure 2's two communication paths: a read served by
// a replica holder versus one forwarded by a server without a replica.
func BenchmarkF2(b *testing.B) {
	run := func(b *testing.B, forwarded bool) {
		c, id := setupSeg(b, 3, core.DefaultParams(), 1)
		ctx := benchCtx(b)
		reader := c.Nodes[0].Core
		if forwarded {
			reader = c.Nodes[1].Core
		}
		// Join the group and settle stability before timing.
		if _, _, err := reader.Read(ctx, id, 0, 0, 4); err != nil {
			b.Fatal(err)
		}
		waitBenchStable(b, ctx, c.Nodes[0].Core, id)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := reader.Read(ctx, id, 0, 0, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("direct", func(b *testing.B) { run(b, false) })
	b.Run("forwarded", func(b *testing.B) { run(b, true) })
}

// addReplicaRetry forces a replica through the shared testutil retry loop:
// blast transfers can time out transiently when the machine is loaded, and
// the join itself persists, so a later attempt finds it done.
func addReplicaRetry(b *testing.B, ctx context.Context, s *core.Server, id core.SegID, target simnet.NodeID) {
	b.Helper()
	err := derr.RetryIf(10*time.Second, func(error) bool { return true }, func() error {
		return s.AddReplica(ctx, id, 0, target)
	})
	if err != nil {
		b.Fatal(err)
	}
}

func waitBenchStable(b *testing.B, ctx context.Context, s *core.Server, id core.SegID) {
	b.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := s.Stat(ctx, id)
		if err != nil {
			b.Fatal(err)
		}
		unstable := false
		for _, v := range info.Versions {
			unstable = unstable || v.Unstable
		}
		if !unstable {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	b.Fatal("never stable")
}

// BenchmarkF4UpdateDistribution measures update cost against file group
// size (Figure 4): fully synchronous writes into groups of 1..5 replicas in
// a fixed 6-server cell.
func BenchmarkF4UpdateDistribution(b *testing.B) {
	for size := 1; size <= 5; size++ {
		b.Run(fmt.Sprintf("group=%d", size), func(b *testing.B) {
			params := core.DefaultParams()
			params.Stability = false
			params.WriteSafety = size
			c, id := setupSeg(b, 6, params, size)
			ctx := benchCtx(b)
			srv := c.Nodes[0].Core
			payload := []byte("distribution-payload")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Write(ctx, id, core.WriteReq{Off: 0, Data: payload}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC1TokenAmortization contrasts §3.3's two cases: writes while
// holding the token versus writes that must first acquire it.
func BenchmarkC1TokenAmortization(b *testing.B) {
	b.Run("token-held", func(b *testing.B) {
		params := core.DefaultParams()
		params.Stability = false
		c, id := setupSeg(b, 2, params, 2)
		ctx := benchCtx(b)
		srv := c.Nodes[0].Core
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := srv.Write(ctx, id, core.WriteReq{Off: 0, Data: []byte("held")}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("token-acquire", func(b *testing.B) {
		params := core.DefaultParams()
		params.Stability = false
		c, id := setupSeg(b, 2, params, 2)
		ctx := benchCtx(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternating writers force a token pass on every write.
			srv := c.Nodes[i%2].Core
			if _, err := srv.Write(ctx, id, core.WriteReq{Off: 0, Data: []byte("pass")}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkC2WriteSafety sweeps the write safety level over a 3-replica
// file (§4): 0 = async unsafe, 3 = fully synchronous.
func BenchmarkC2WriteSafety(b *testing.B) {
	for safety := 0; safety <= 3; safety++ {
		b.Run(fmt.Sprintf("safety=%d", safety), func(b *testing.B) {
			params := core.DefaultParams()
			params.Stability = false
			params.WriteSafety = safety
			params.MinReplicas = 3
			c, id := setupSeg(b, 3, params, 3)
			ctx := benchCtx(b)
			srv := c.Nodes[0].Core
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Write(ctx, id, core.WriteReq{Off: 0, Data: []byte("safety")}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC3Stability compares steady-stream write cost with stability
// notification on and off (§3.4). The notification itself is paid once per
// stream; these are the per-write steady-state costs.
func BenchmarkC3Stability(b *testing.B) {
	for _, mode := range []string{"on", "off"} {
		b.Run("stability="+mode, func(b *testing.B) {
			params := core.DefaultParams()
			params.Stability = mode == "on"
			c, id := setupSeg(b, 2, params, 2)
			ctx := benchCtx(b)
			srv := c.Nodes[0].Core
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Write(ctx, id, core.WriteReq{Off: 0, Data: []byte("s")}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkC4Migration compares repeated reads through a server without a
// replica before and after migration lands one (§3.1 method 4).
func BenchmarkC4Migration(b *testing.B) {
	b.Run("remote", func(b *testing.B) {
		c, id := setupSeg(b, 2, core.DefaultParams(), 1)
		ctx := benchCtx(b)
		waitBenchStable(b, ctx, c.Nodes[0].Core, id)
		reader := c.Nodes[1].Core
		if _, _, err := reader.Read(ctx, id, 0, 0, 4); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := reader.Read(ctx, id, 0, 0, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("migrated", func(b *testing.B) {
		params := core.DefaultParams()
		params.Migration = true
		c, id := setupSeg(b, 2, params, 1)
		ctx := benchCtx(b)
		waitBenchStable(b, ctx, c.Nodes[0].Core, id)
		reader := c.Nodes[1].Core
		// Trigger migration and wait for the local replica.
		if _, _, err := reader.Read(ctx, id, 0, 0, 4); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			info, err := reader.Stat(ctx, id)
			if err != nil {
				b.Fatal(err)
			}
			found := false
			for _, r := range info.Versions[0].Replicas {
				if r == reader.ID() {
					found = true
				}
			}
			if found {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := reader.Read(ctx, id, 0, 0, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkF8AgentCache measures the agent configurations of Figure 8: the
// same NFS read with and without the lease-backed client cache, over real
// TCP. A cache hit still pays one revalidation round trip (the coherence
// contract), but no data moves.
func BenchmarkF8AgentCache(b *testing.B) {
	run := func(b *testing.B, cache bool) {
		cell, err := testnfs.NewNFSCell(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cell.Close)
		ag, err := agent.Mount(cell.Addrs(), agent.Options{Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(ag.Close)
		if err := ag.WriteFile("/bench.dat", []byte(strings.Repeat("d", 1024))); err != nil {
			b.Fatal(err)
		}
		h, _, err := ag.Walk("/bench.dat")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ag.Read(h, 0, 4096); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ag.Read(h, 0, 4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cache=off", func(b *testing.B) { run(b, false) })
	b.Run("cache=on", func(b *testing.B) { run(b, true) })
}

// BenchmarkS2Blast measures the §6.2 blast transfer: forcing a 1 MiB
// replica onto a server and dropping it again.
func BenchmarkS2Blast(b *testing.B) {
	params := core.DefaultParams()
	params.Migration = false
	c, id := setupSeg(b, 2, params, 1)
	ctx := benchCtx(b)
	a := c.Nodes[0].Core
	payload := make([]byte, 1<<20)
	if _, err := a.Write(ctx, id, core.WriteReq{Data: payload}); err != nil {
		b.Fatal(err)
	}
	waitBenchStable(b, ctx, a, id)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.AddReplica(ctx, id, 0, c.IDs[1]); err != nil {
			b.Fatal(err)
		}
		if err := a.RemoveReplica(ctx, id, 0, c.IDs[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHotRoot measures the §7 future-work hot-file mode on its
// motivating workload: every server repeatedly reading the same root
// directory. With the mode off only one replica exists and most reads pay a
// forwarding hop; on, every server serves reads from its own replica.
func BenchmarkAblationHotRoot(b *testing.B) {
	run := func(b *testing.B, hot bool) {
		c := testutil.NewCell(5)
		b.Cleanup(c.Close)
		ctx := benchCtx(b)
		params := core.DefaultParams()
		params.HotRead = hot
		id, err := c.Nodes[0].Core.Create(ctx, params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("/bin /usr /home")}); err != nil {
			b.Fatal(err)
		}
		waitBenchStable(b, ctx, c.Nodes[0].Core, id)
		// Warm up: every server touches the file; with hot-read, wait until
		// replicas land everywhere.
		for round := 0; round < 200; round++ {
			for i := 0; i < 5; i++ {
				if _, _, err := c.Nodes[i].Core.Read(ctx, id, 0, 0, -1); err != nil {
					b.Fatal(err)
				}
			}
			if !hot {
				break
			}
			info, err := c.Nodes[0].Core.Stat(ctx, id)
			if err != nil {
				b.Fatal(err)
			}
			if len(info.Versions) == 1 && len(info.Versions[0].Replicas) == 5 {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := c.Nodes[i%5].Core.Read(ctx, id, 0, 0, -1); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hot=off", func(b *testing.B) { run(b, false) })
	b.Run("hot=on", func(b *testing.B) { run(b, true) })
}

// BenchmarkContentionMultiWriter measures the multi-writer contention path:
// 4 concurrent writers updating one segment through the same server, each
// write its own total-order cast. msgs/op is the network cost per write.
func BenchmarkContentionMultiWriter(b *testing.B) {
	c := testutil.NewCell(3)
	b.Cleanup(c.Close)
	ctx := benchCtx(b)
	params := core.DefaultParams()
	params.MinReplicas = 3
	id, err := c.Nodes[0].Core.Create(ctx, params)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("seed")}); err != nil {
		b.Fatal(err)
	}
	for r := 1; r < 3; r++ {
		addReplicaRetry(b, ctx, c.Nodes[0].Core, id, c.IDs[r])
	}
	waitBenchStable(b, ctx, c.Nodes[0].Core, id)

	const writers = 4
	srv := c.Nodes[0].Core
	payload := []byte("contended-write-payload")
	c.Net.ResetStats()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				if _, err := srv.Write(ctx, id, core.WriteReq{Off: int64(w * 32), Data: payload}); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(c.Net.Stats().Sent)/float64(writers*b.N), "msgs/op")
}

// BenchmarkAblationBatchedCasts is the batched-vs-unbatched ablation for the
// explicit narrow-waist batch call: a run of 8 updates issued as one
// WriteBatch versus 8 sequential Writes.
func BenchmarkAblationBatchedCasts(b *testing.B) {
	run := func(b *testing.B, batched bool) {
		c := testutil.NewCell(3)
		b.Cleanup(c.Close)
		ctx := benchCtx(b)
		params := core.DefaultParams()
		params.MinReplicas = 3
		id, err := c.Nodes[0].Core.Create(ctx, params)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("seed")}); err != nil {
			b.Fatal(err)
		}
		for r := 1; r < 3; r++ {
			addReplicaRetry(b, ctx, c.Nodes[0].Core, id, c.IDs[r])
		}
		waitBenchStable(b, ctx, c.Nodes[0].Core, id)

		const run = 8
		srv := c.Nodes[0].Core
		reqs := make([]core.WriteReq, run)
		for i := range reqs {
			reqs[i] = core.WriteReq{Off: int64(i * 16), Data: []byte("batched-payload!")}
		}
		c.Net.ResetStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if batched {
				if _, err := srv.WriteBatch(ctx, id, reqs); err != nil {
					b.Fatal(err)
				}
			} else {
				for _, r := range reqs {
					if _, err := srv.Write(ctx, id, r); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(c.Net.Stats().Sent)/float64(b.N*run), "msgs/write")
	}
	b.Run("batched=off", func(b *testing.B) { run(b, false) })
	b.Run("batched=on", func(b *testing.B) { run(b, true) })
}

// BenchmarkEnvelopeOps measures the NFS envelope's directory machinery
// (§5.2): create+remove cycles and path lookups on a single server.
func BenchmarkEnvelopeOps(b *testing.B) {
	b.Run("agent-write-read", func(b *testing.B) {
		cell, err := testnfs.NewNFSCell(1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(cell.Close)
		ag, err := agent.Mount(cell.Addrs(), agent.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(ag.Close)
		if err := ag.WriteFile("/f.txt", []byte("x")); err != nil {
			b.Fatal(err)
		}
		h, _, err := ag.Walk("/f.txt")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ag.Write(h, 0, []byte("payload")); err != nil {
				b.Fatal(err)
			}
			if _, err := ag.Read(h, 0, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHotReadLocal measures hot reads of an unstable file by a replica
// holder that is not the token holder (§4's shared read tokens): one grant
// cast at warm-up certifies the local replica, and every read after it is
// served locally with zero communication.
func BenchmarkHotReadLocal(b *testing.B) {
	copts := testutil.FastCoreOpts()
	// Keep the §3.4 unstable window open for the whole measurement.
	copts.StabilityDelay = time.Minute
	c := testutil.NewCellOpts(2, testutil.FastISISOpts(), copts)
	b.Cleanup(c.Close)
	ctx := benchCtx(b)
	params := core.DefaultParams()
	params.MinReplicas = 2
	id, err := c.Nodes[0].Core.Create(ctx, params)
	if err != nil {
		b.Fatal(err)
	}
	// The seed write makes srv0 the token holder and leaves the file
	// unstable for the rest of the run.
	if _, err := c.Nodes[0].Core.Write(ctx, id, core.WriteReq{Data: []byte("hot-read payload"), Truncate: true}); err != nil {
		b.Fatal(err)
	}
	addReplicaRetry(b, ctx, c.Nodes[0].Core, id, c.IDs[1])

	reader := c.Nodes[1].Core
	// Warm-up: this read pays the one grant cast.
	if _, _, err := reader.Read(ctx, id, 0, 0, -1); err != nil {
		b.Fatal(err)
	}
	pre := reader.ReadStats()
	c.Net.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := reader.Read(ctx, id, 0, 0, -1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	post := reader.ReadStats()
	b.ReportMetric(float64(c.Net.Stats().Sent)/float64(b.N), "msgs/read")
	b.ReportMetric(float64(post.Local-pre.Local)/float64(b.N), "local/read")
	b.ReportMetric(float64(post.TokenCasts-pre.TokenCasts)/float64(b.N), "casts/read")
}
