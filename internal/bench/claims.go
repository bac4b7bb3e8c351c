package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/testutil"
)

// RunC1 regenerates §3.3's claim: "an update requires only one
// communication round if the token is held ... token acquisition requires
// one round, but it is only done for the first in a series of updates."
// We time the first write of a stream from a server that must acquire the
// token against subsequent writes of the same stream. Every write is one
// cast whose slot carries the token pass with the update, so acquisition
// costs no round of its own here: the first write is one round too.
func RunC1() (*Table, error) {
	c := testutil.NewCell(3)
	defer c.Close()
	cx, cancel := ctx()
	defer cancel()
	c.Net.SetLatency(time.Millisecond, 0)
	defer c.Net.SetLatency(0, 0)

	a, b := c.Nodes[0].Core, c.Nodes[1].Core
	params := core.DefaultParams()
	params.Stability = false
	id, err := a.Create(cx, params)
	if err != nil {
		return nil, err
	}
	if err := a.AddReplica(cx, id, 0, c.IDs[1]); err != nil {
		return nil, err
	}
	if err := a.AddReplica(cx, id, 0, c.IDs[2]); err != nil {
		return nil, err
	}

	const streams = 10
	var first, rest time.Duration
	var restN int
	for s := 0; s < streams; s++ {
		// Hand the token back to a between streams.
		if _, err := a.Write(cx, id, core.WriteReq{Data: []byte("reset")}); err != nil {
			return nil, err
		}
		// b's first write of the stream pays for token acquisition...
		start := time.Now()
		if _, err := b.Write(cx, id, core.WriteReq{Data: []byte("first")}); err != nil {
			return nil, err
		}
		first += time.Since(start)
		// ...and the rest of the stream does not.
		for i := 0; i < 5; i++ {
			start = time.Now()
			if _, err := b.Write(cx, id, core.WriteReq{Data: []byte("next")}); err != nil {
				return nil, err
			}
			rest += time.Since(start)
			restN++
		}
	}
	return &Table{
		ID:     "C1",
		Title:  "Token amortization over an update stream (§3.3)",
		Header: []string{"write", "avg latency", "rounds"},
		Rows: [][]string{
			{"first of stream (token acquisition)", ms(first / streams), "1 (token pass rides the update)"},
			{"subsequent (token held)", ms(rest / time.Duration(restN)), "1 (update only)"},
		},
		Notes: []string{"expected shape: first ≈ subsequent under uniform latency (one cast each)"},
	}, nil
}

// RunC2 regenerates §4's write safety level trade-off: 0 = asynchronous
// unsafe writes, k = wait for k replica replies, ≥ replicas = fully
// synchronous slow writes.
func RunC2() (*Table, error) {
	c := testutil.NewCell(3)
	defer c.Close()
	cx, cancel := ctx()
	defer cancel()
	c.Net.SetLatency(time.Millisecond, 0)
	defer c.Net.SetLatency(0, 0)

	t := &Table{
		ID:     "C2",
		Title:  "Write latency vs write safety level, 3 replicas (§4)",
		Header: []string{"write safety", "avg latency", "meaning"},
		Notes: []string{"expected shape: 0 fastest (async); with the writer off the " +
			"coordinator, 1 and 2 tie, because the coordinator's reply lands in the " +
			"same round as the writer's own delivery; 3 pays one more hop"},
	}
	meanings := map[int]string{
		0: "asynchronous unsafe write",
		1: "holder's replica only (default)",
		2: "majority of replicas",
		3: "fully synchronous",
	}
	// Node 0 creates each file and coordinates its group. The writes come
	// from node 1, which takes the token with its warm-up write: a holder
	// that is not the coordinator has to cross the link to get its update
	// sequenced, which is what a synchronous safety level waits for.
	a, b := c.Nodes[0].Core, c.Nodes[1].Core
	for safety := 0; safety <= 3; safety++ {
		params := core.DefaultParams()
		params.WriteSafety = safety
		params.Stability = false
		params.MinReplicas = 3
		id, err := a.Create(cx, params)
		if err != nil {
			return nil, err
		}
		if err := a.AddReplica(cx, id, 0, c.IDs[1]); err != nil {
			return nil, err
		}
		if err := a.AddReplica(cx, id, 0, c.IDs[2]); err != nil {
			return nil, err
		}
		if _, err := b.Write(cx, id, core.WriteReq{Data: []byte("warm")}); err != nil {
			return nil, err
		}
		avg := timeAvg(25, func() error {
			_, err := b.Write(cx, id, core.WriteReq{Off: 0, Data: []byte("safety-payload!!")})
			return err
		})
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", safety), ms(avg), meanings[safety]})
	}
	return t, nil
}

// RunC3 regenerates §3.4's stability-notification cost model: "overhead is
// incurred at the beginning and end of a stream of updates. This overhead
// can be expensive if updates are short and rare."
func RunC3() (*Table, error) {
	c := testutil.NewCell(3)
	defer c.Close()
	cx, cancel := ctx()
	defer cancel()
	c.Net.SetLatency(time.Millisecond, 0)
	defer c.Net.SetLatency(0, 0)

	t := &Table{
		ID:     "C3",
		Title:  "Stability notification overhead vs stream length (§3.4)",
		Header: []string{"stream length", "stability", "avg latency/write"},
		Notes: []string{
			"expected shape: notification costs one extra round per stream,",
			"so the per-write overhead vanishes as streams grow",
		},
	}
	a := c.Nodes[0].Core
	for _, stability := range []bool{true, false} {
		for _, streamLen := range []int{1, 10, 100} {
			params := core.DefaultParams()
			params.Stability = stability
			params.WriteSafety = 1
			id, err := a.Create(cx, params)
			if err != nil {
				return nil, err
			}
			if err := a.AddReplica(cx, id, 0, c.IDs[1]); err != nil {
				return nil, err
			}
			const streams = 5
			var total time.Duration
			for s := 0; s < streams; s++ {
				// Wait out the stability timer so each stream pays the
				// notification entry cost again.
				if stability {
					if err := waitStable(cx, a, id); err != nil {
						return nil, err
					}
				}
				start := time.Now()
				for i := 0; i < streamLen; i++ {
					if _, err := a.Write(cx, id, core.WriteReq{Off: 0, Data: []byte("w")}); err != nil {
						return nil, err
					}
				}
				total += time.Since(start)
			}
			avg := total / time.Duration(streams*streamLen)
			mode := "off"
			if stability {
				mode = "on"
			}
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", streamLen), mode, ms(avg)})
		}
	}
	return t, nil
}

// RunC4 regenerates §3.1 method 4: file migration. Repeated reads through a
// server without a replica pay the forwarding cost until (with migration
// enabled) a local replica lands and reads become local.
func RunC4() (*Table, error) {
	t := &Table{
		ID:     "C4",
		Title:  "File migration: repeated remote reads (§3.1 method 4)",
		Header: []string{"migration", "read #1-5 avg", "read #20+ avg", "replica migrated"},
		Notes:  []string{"expected shape: with migration on, late reads drop to local latency"},
	}
	for _, migration := range []bool{false, true} {
		c := testutil.NewCell(2)
		cx, cancel := ctx()
		c.Net.SetLatency(2*time.Millisecond, 0)

		a, b := c.Nodes[0].Core, c.Nodes[1].Core
		params := core.DefaultParams()
		params.Migration = migration
		id, err := a.Create(cx, params)
		if err != nil {
			cancel()
			c.Close()
			return nil, err
		}
		if _, err := a.Write(cx, id, core.WriteReq{Data: []byte(strings.Repeat("m", 4096))}); err != nil {
			cancel()
			c.Close()
			return nil, err
		}
		if err := waitStable(cx, a, id); err != nil {
			cancel()
			c.Close()
			return nil, err
		}

		var early, late time.Duration
		for i := 0; i < 5; i++ {
			start := time.Now()
			if _, _, err := b.Read(cx, id, 0, 0, 4096); err != nil {
				cancel()
				c.Close()
				return nil, err
			}
			early += time.Since(start)
		}
		// Give the background migration time to land.
		time.Sleep(500 * time.Millisecond)
		for i := 0; i < 15; i++ {
			if _, _, err := b.Read(cx, id, 0, 0, 4096); err != nil {
				cancel()
				c.Close()
				return nil, err
			}
		}
		lateN := 10
		for i := 0; i < lateN; i++ {
			start := time.Now()
			if _, _, err := b.Read(cx, id, 0, 0, 4096); err != nil {
				cancel()
				c.Close()
				return nil, err
			}
			late += time.Since(start)
		}
		migrated := "no"
		if info, err := b.Stat(cx, id); err == nil {
			for _, r := range info.Versions[0].Replicas {
				if r == b.ID() {
					migrated = "yes"
				}
			}
		}
		mode := "off"
		if migration {
			mode = "on"
		}
		t.Rows = append(t.Rows, []string{mode, ms(early / 5), ms(late / time.Duration(lateN)), migrated})
		cancel()
		c.Close()
	}
	return t, nil
}

// RunC5 regenerates the §4/§3.5 write-availability matrix under a network
// partition: high forks versions (conflicts possible), medium restricts
// writes to the majority side (no conflicts), low forbids regeneration
// entirely.
func RunC5() (*Table, error) {
	t := &Table{
		ID:     "C5",
		Title:  "Partition behavior by write availability level (§4, §3.5)",
		Header: []string{"availability", "majority write", "minority write", "versions after heal", "conflicts"},
		Notes: []string{
			"expected: high -> minority forks (2 versions, conflict logged);",
			"medium -> minority read-only, 1 version; low -> no regeneration, 1 version",
		},
	}
	for _, avail := range []core.Availability{core.AvailHigh, core.AvailMedium, core.AvailLow} {
		row, err := runC5Case(avail)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func runC5Case(avail core.Availability) ([]string, error) {
	c := testutil.NewCell(3)
	defer c.Close()
	cx, cancel := ctx()
	defer cancel()

	a, b := c.Nodes[0].Core, c.Nodes[1].Core
	params := core.DefaultParams()
	params.Avail = avail
	id, err := a.Create(cx, params)
	if err != nil {
		return nil, err
	}
	if _, err := a.Write(cx, id, core.WriteReq{Data: []byte("base")}); err != nil {
		return nil, err
	}
	if err := a.AddReplica(cx, id, 0, c.IDs[1]); err != nil {
		return nil, err
	}
	if avail != core.AvailHigh {
		// Third replica so the majority side genuinely has a majority.
		if err := a.AddReplica(cx, id, 0, c.IDs[2]); err != nil {
			return nil, err
		}
	}
	if err := waitStable(cx, a, id); err != nil {
		return nil, err
	}

	c.Net.Partition([]simnet.NodeID{"srv0", "srv2"}, []simnet.NodeID{"srv1"})
	time.Sleep(400 * time.Millisecond)

	maj := "ok"
	if _, err := a.Write(cx, id, core.WriteReq{Off: 4, Data: []byte("+A")}); err != nil {
		maj = shortErr(err)
	}
	minority := "ok"
	{
		deadline := time.Now().Add(6 * time.Second)
		for {
			wcx, wcancel := ctxShort()
			_, err := b.Write(wcx, id, core.WriteReq{Off: 4, Data: []byte("+B")})
			wcancel()
			if err == nil {
				minority = "ok"
				break
			}
			if errors.Is(err, core.ErrWriteUnavailable) {
				minority = "rejected (no token)"
				break
			}
			if time.Now().After(deadline) {
				minority = shortErr(err)
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	c.Net.Heal()
	// Wait for the merge to settle.
	versions := 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ia, erra := a.Stat(cx, id)
		ib, errb := b.Stat(cx, id)
		if erra == nil && errb == nil && len(ia.Versions) == len(ib.Versions) {
			versions = len(ia.Versions)
			if (avail == core.AvailHigh && versions == 2) || (avail != core.AvailHigh && versions == 1) {
				break
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	conflicts := len(a.Conflicts()) + len(b.Conflicts())
	return []string{
		avail.String(), maj, minority,
		fmt.Sprintf("%d", versions), fmt.Sprintf("%d", conflicts),
	}, nil
}

func shortErr(err error) string {
	s := err.Error()
	if len(s) > 40 {
		s = s[:40]
	}
	return s
}

// RunS2 regenerates §6.2's blast transfer: moving a large file between
// servers by forcing a replica on the target and deleting the source
// replica, while the data stays readable throughout.
func RunS2() (*Table, error) {
	c := testutil.NewCell(2)
	defer c.Close()
	cx, cancel := ctx()
	defer cancel()

	a, b := c.Nodes[0].Core, c.Nodes[1].Core
	params := core.DefaultParams()
	params.Migration = false // §6.2: "turn off automatic localization"
	params.MinReplicas = 1
	id, err := a.Create(cx, params)
	if err != nil {
		return nil, err
	}
	const size = 16 << 20
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wStart := time.Now()
	if _, err := a.Write(cx, id, core.WriteReq{Data: payload}); err != nil {
		return nil, err
	}
	writeDur := time.Since(wStart)
	if err := waitStable(cx, a, id); err != nil {
		return nil, err
	}

	// Blast: force a replica onto the target...
	tStart := time.Now()
	if err := a.AddReplica(cx, id, 0, b.ID()); err != nil {
		return nil, err
	}
	transferDur := time.Since(tStart)
	// ...and delete the source replica.
	if err := a.RemoveReplica(cx, id, 0, a.ID()); err != nil {
		return nil, err
	}

	// Data remains readable from either server afterwards.
	data, _, err := a.Read(cx, id, 0, int64(size)-16, 16)
	if err != nil {
		return nil, err
	}
	intact := len(data) == 16 && data[0] == payload[size-16]

	mbps := func(d time.Duration) string {
		return fmt.Sprintf("%.0f MB/s", float64(size)/(1<<20)/d.Seconds())
	}
	okStr := "yes"
	if !intact {
		okStr = "NO"
	}
	return &Table{
		ID:     "S2",
		Title:  "Data collection scenario: 16 MiB blast transfer (§6.2)",
		Header: []string{"phase", "duration", "throughput"},
		Rows: [][]string{
			{"initial write (1 replica)", writeDur.Round(time.Millisecond).String(), mbps(writeDur)},
			{"blast transfer to target", transferDur.Round(time.Millisecond).String(), mbps(transferDur)},
			{"data intact after source delete", okStr, ""},
		},
	}, nil
}

func ctxShort() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), 2*time.Second)
}
