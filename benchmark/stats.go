package main

import (
	"fmt"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/internal/store"
)

// quantile returns the q-th quantile of sorted, interpolating between the
// two nearest ranks; 0 for an empty slice.
func quantile[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + T(frac*float64(sorted[lo+1]-sorted[lo]))
}

func median(durs []time.Duration) time.Duration {
	s := slices.Clone(durs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}

// counters is a snapshot of every public counter the layers expose, summed
// over servers, stores and clients. Take it only while no client is
// running: the agent's counters are plain fields.
type counters struct {
	rpcs, cacheHits, revalidations, failovers uint64 // agent
	sheds                                     uint64 // server
	readsLocal, readsForwarded, tokenCasts    uint64 // core
	xferBytes                                 uint64 // core, replica data served to peers
	msgs, netBytes, dropped                   uint64 // simnet
	fsyncs, commits, storeOps                 uint64 // store
}

func (c *cell) counters() counters {
	var k counters
	for _, ag := range c.clients {
		k.rpcs += ag.Calls
		k.cacheHits += ag.CacheHits
		k.revalidations += ag.Revalidations
		k.failovers += ag.Failovers
	}
	for _, srv := range c.servers {
		k.sheds += srv.ShedCount()
		rs, ts := srv.Core().ReadStats(), srv.Core().TransferStats()
		k.readsLocal += rs.Local
		k.readsForwarded += rs.Forwarded
		k.tokenCasts += rs.TokenCasts
		k.xferBytes += ts.BytesOut
	}
	k.addNetStore(c)
	return k
}

// addNetStore adds the counters that are safe to read under load.
func (k *counters) addNetStore(c *cell) {
	ns := c.net.Stats()
	k.msgs, k.netBytes, k.dropped = ns.Sent, ns.Bytes, ns.Dropped
	for _, st := range c.stores {
		ls := st.Stats()
		k.fsyncs += ls.Syncs
		k.commits += ls.Commits
		k.storeOps += ls.Ops
	}
}

// netStore snapshots only the simnet and store counters.
func (c *cell) netStore() counters {
	var k counters
	k.addNetStore(c)
	return k
}

func (a counters) sub(b counters) counters {
	return counters{
		rpcs: a.rpcs - b.rpcs, cacheHits: a.cacheHits - b.cacheHits,
		revalidations: a.revalidations - b.revalidations, failovers: a.failovers - b.failovers,
		sheds:      a.sheds - b.sheds,
		readsLocal: a.readsLocal - b.readsLocal, readsForwarded: a.readsForwarded - b.readsForwarded,
		tokenCasts: a.tokenCasts - b.tokenCasts, xferBytes: a.xferBytes - b.xferBytes,
		msgs: a.msgs - b.msgs, netBytes: a.netBytes - b.netBytes, dropped: a.dropped - b.dropped,
		fsyncs: a.fsyncs - b.fsyncs, commits: a.commits - b.commits, storeOps: a.storeOps - b.storeOps,
	}
}

// walPoller follows each store's log length every 50 ms, so bytes appended
// keep accumulating across the truncation a checkpoint performs.
type walPoller struct {
	stop        chan struct{}
	done        sync.WaitGroup
	walBytes    int64
	checkpoints int
}

func startWalPoller(stores []*store.LogStore) *walPoller {
	p := &walPoller{stop: make(chan struct{})}
	last := make([]store.LogStats, len(stores))
	for i, st := range stores {
		last[i] = st.Stats()
	}
	poll := func() {
		for i, st := range stores {
			ls := st.Stats()
			if ls.CheckpointSeq != last[i].CheckpointSeq {
				p.checkpoints++
				p.walBytes += ls.WalBytes // the log restarted from empty
			} else {
				p.walBytes += ls.WalBytes - last[i].WalBytes
			}
			last[i] = ls
		}
	}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				poll()
			case <-p.stop:
				poll()
				return
			}
		}
	}()
	return p
}

// finish stops the poller; walBytes and checkpoints are final after it.
func (p *walPoller) finish() {
	close(p.stop)
	p.done.Wait()
}
