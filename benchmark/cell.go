package main

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/store"
)

const (
	numServers = 3
	// numClients is fixed in code: NFS callers wait for their reply, and two
	// closed-loop callers is what the 2-CPU sandbox runs repeatably.
	numClients = 2
)

// cell is one in-process Deceit cell in the shape cmd/deceitd ships:
// server.New with zero-valued ISIS and Core options (whatever the defaults
// are is what gets measured), a LogStore with real fsync on every server,
// 2 replicas per file, inter-server traffic on a simnet with zero injected
// delay and no loss, clients on loopback TCP.
type cell struct {
	dir     string
	net     *simnet.Network
	ids     []simnet.NodeID
	servers []*server.Server
	stores  []*store.LogStore
	addrs   []string
	clients []*agent.Agent // client i is homed on server i, cache on
}

func bootCell(dir string) (*cell, error) {
	c := &cell{dir: dir, net: simnet.NewNetwork()}
	for i := 0; i < numServers; i++ {
		c.ids = append(c.ids, simnet.NodeID(fmt.Sprintf("srv%d", i)))
	}
	params := core.DefaultParams()
	params.MinReplicas = 2
	for i := 0; i < numServers; i++ {
		st, err := store.OpenLog(filepath.Join(dir, fmt.Sprintf("d%d", i)), store.LogOptions{})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("open store %d: %w", i, err)
		}
		c.stores = append(c.stores, st)
		srv, err := server.New(server.Config{
			Transport:     c.net.Attach(c.ids[i]),
			Peers:         c.ids,
			Store:         st,
			InitRoot:      i == 0,
			DefaultParams: params,
		})
		if err != nil {
			c.close()
			return nil, fmt.Errorf("start server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		addr, err := srv.ServeNFS("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("serve nfs %d: %w", i, err)
		}
		c.addrs = append(c.addrs, addr)
	}
	for i := 0; i < numClients; i++ {
		ag, err := c.mount(i, true)
		if err != nil {
			c.close()
			return nil, err
		}
		c.clients = append(c.clients, ag)
	}
	return c, nil
}

// mount returns an agent homed on server i; the other servers follow as its
// failover list.
func (c *cell) mount(i int, cache bool) (*agent.Agent, error) {
	addrs := append(append([]string(nil), c.addrs[i:]...), c.addrs[:i]...)
	ag, err := agent.Mount(addrs, agent.Options{Cache: cache})
	if err != nil {
		return nil, fmt.Errorf("mount on server %d: %w", i, err)
	}
	return ag, nil
}

// close stops every server and removes the cell's directory.
func (c *cell) close() {
	for _, ag := range c.clients {
		ag.Close()
	}
	for _, srv := range c.servers {
		srv.Close()
	}
	c.net.Close()
	for _, st := range c.stores {
		_ = st.Close() // the directory is removed next; nothing left to lose
	}
	_ = os.RemoveAll(c.dir)
}
