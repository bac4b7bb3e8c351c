package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/derr"
	"repro/internal/testutil"
)

// retryCore retries fn under the shared backoff policy while the segment
// layer reports a retryable condition (token movement, group mid-rejoin).
func retryCore(fn func() error) error {
	return derr.RetryIf(10*time.Second, core.IsRetryable, fn)
}

// This file holds the ablation experiment for §7's hot-file mode (A3), an
// optimization the paper describes but does not implement. It quantifies
// what the paper left on the table.

func init() {
	Experiments["A3"] = RunA3
	Order = append(Order, "A3")
}

// ablationCell builds a cell with n servers and one segment replicated on
// the first `replicas` of them, seeded and stable.
func ablationCell(n int, copts core.Options, params core.Params, replicas int) (*testutil.Cell, core.SegID, error) {
	c := testutil.NewCellOpts(n, testutil.FastISISOpts(), copts)
	cx, cancel := ctx()
	defer cancel()
	id, err := c.Nodes[0].Core.Create(cx, params)
	if err != nil {
		c.Close()
		return nil, 0, err
	}
	if _, err := c.Nodes[0].Core.Write(cx, id, core.WriteReq{Data: []byte("seed"), Truncate: true}); err != nil {
		c.Close()
		return nil, 0, err
	}
	for r := 1; r < replicas; r++ {
		// Retried: blast transfers can time out transiently under load while
		// the target is still joining the file group.
		target := c.IDs[r]
		if err := retryCore(func() error {
			return c.Nodes[0].Core.AddReplica(cx, id, 0, target)
		}); err != nil {
			c.Close()
			return nil, 0, err
		}
	}
	if err := waitStable(cx, c.Nodes[0].Core, id); err != nil {
		c.Close()
		return nil, 0, err
	}
	return c, id, nil
}

// RunA3 measures the §7 future-work hot-file mode against the problem the
// paper names: "certain files and directories such as the root directory
// will be accessed very frequently by all servers." Five servers read the
// same segment under injected link latency; without the mode only one
// replica exists and four servers forward every read.
func RunA3() (*Table, error) {
	t := &Table{
		ID:     "A3",
		Title:  "ablation: §7 hot-file mode — every server reads the root directory (1ms links)",
		Header: []string{"hot-read", "latency/read", "msgs/read", "replicas"},
	}
	const servers = 5
	const iters = 200
	for _, on := range []bool{false, true} {
		params := core.DefaultParams()
		params.HotRead = on
		c, id, err := ablationCell(servers, testutil.FastCoreOpts(), params, 1)
		if err != nil {
			return nil, err
		}
		cx, cancel := ctx()
		// Warm up: every server touches the file once; with hot-read on,
		// wait until the replicas land everywhere.
		for i := 0; i < servers; i++ {
			if _, _, err := c.Nodes[i].Core.Read(cx, id, 0, 0, -1); err != nil {
				cancel()
				c.Close()
				return nil, err
			}
		}
		replicas := 1
		if on {
			deadline := 100
			for ; deadline > 0; deadline-- {
				info, err := c.Nodes[0].Core.Stat(cx, id)
				if err == nil && len(info.Versions) == 1 {
					replicas = len(info.Versions[0].Replicas)
				}
				if replicas == servers {
					break
				}
				// Re-touch so stragglers re-request their replica; give the
				// one-at-a-time blast transfers room to run.
				for i := 0; i < servers; i++ {
					_, _, _ = c.Nodes[i].Core.Read(cx, id, 0, 0, -1)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		c.Net.SetLatency(time.Millisecond, 0)
		c.Net.ResetStats()
		i := 0
		avg := timeAvg(iters, func() error {
			srv := c.Nodes[i%servers].Core
			i++
			_, _, err := srv.Read(cx, id, 0, 0, -1)
			return err
		})
		msgs := float64(c.Net.Stats().Sent) / float64(iters)
		cancel()
		c.Close()
		label := "off"
		if on {
			label = "on"
		}
		t.Rows = append(t.Rows, []string{label, ms(avg), fmt.Sprintf("%.1f", msgs),
			fmt.Sprintf("%d/%d", replicas, servers)})
	}
	t.Notes = append(t.Notes,
		"with hot-read on, every server grows a replica during warm-up and all",
		"reads are local; off, 4 of 5 servers pay a forwarding round trip per read")
	return t, nil
}
