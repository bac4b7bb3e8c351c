// Package testutil assembles in-process Deceit cells — simulated network,
// ISIS processes, stores and segment servers — for tests, benchmarks and
// single-process examples.
package testutil

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/isis"
	"repro/internal/simnet"
	"repro/internal/store"
)

// Node bundles one Deceit server's components.
type Node struct {
	ID    simnet.NodeID
	Demux *simnet.Demux
	Proc  *isis.Process
	Store store.Store
	Core  *core.Server
}

// Cell is an in-process Deceit cell.
type Cell struct {
	Net   *simnet.Network
	IDs   []simnet.NodeID
	Nodes []*Node

	ISISOpts isis.Options
	CoreOpts core.Options
}

// FastISISOpts are aggressive timeouts for in-process simulation.
func FastISISOpts() isis.Options {
	return isis.Options{
		HeartbeatInterval: 10 * time.Millisecond,
		SuspectTimeout:    80 * time.Millisecond,
		RetransInterval:   25 * time.Millisecond,
		ProbeInterval:     60 * time.Millisecond,
	}
}

// FastCoreOpts match FastISISOpts.
func FastCoreOpts() core.Options {
	return core.Options{
		StabilityDelay: 60 * time.Millisecond,
		OpTimeout:      2 * time.Second,
		JoinWait:       700 * time.Millisecond,
	}
}

// NewCell starts n Deceit servers named "srv0".."srvN" on one simulated
// network.
func NewCell(n int) *Cell {
	return NewCellOpts(n, FastISISOpts(), FastCoreOpts())
}

// NewCellOpts starts a cell with explicit protocol options.
func NewCellOpts(n int, iopts isis.Options, copts core.Options) *Cell {
	c := &Cell{Net: simnet.NewNetwork(), ISISOpts: iopts, CoreOpts: copts}
	for i := 0; i < n; i++ {
		c.IDs = append(c.IDs, simnet.NodeID(fmt.Sprintf("srv%d", i)))
	}
	for i := 0; i < n; i++ {
		c.Nodes = append(c.Nodes, c.StartNode(c.IDs[i], store.NewMemStore()))
	}
	return c
}

// StartNode attaches one server to the cell.
func (c *Cell) StartNode(id simnet.NodeID, st store.Store) *Node {
	ep := c.Net.Attach(id)
	demux := simnet.NewDemux(ep)
	proc := isis.NewProcess(demux.Channel(0), c.IDs, c.ISISOpts)
	srv := core.NewServer(proc, demux.Channel(1), st, c.CoreOpts)
	return &Node{ID: id, Demux: demux, Proc: proc, Store: st, Core: srv}
}

// Crash simulates a machine crash of node i.
func (c *Cell) Crash(i int) store.Store {
	nd := c.Nodes[i]
	st := nd.Store
	nd.Core.Close()
	nd.Proc.Close()
	c.Net.Detach(nd.ID)
	c.Nodes[i] = nil
	return st
}

// Restart brings node i back with the given store.
func (c *Cell) Restart(i int, st store.Store) *Node {
	nd := c.StartNode(c.IDs[i], st)
	c.Nodes[i] = nd
	return nd
}

// Close shuts the whole cell down.
func (c *Cell) Close() {
	for _, nd := range c.Nodes {
		if nd != nil {
			nd.Core.Close()
			nd.Proc.Close()
		}
	}
	c.Net.Close()
}
