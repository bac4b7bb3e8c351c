package testnfs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/testutil"
)

// NFSNode is one full Deceit server with its RPC endpoint.
type NFSNode struct {
	Server *server.Server
	Store  store.Store
	Addr   string
}

// NFSCell is a cell of complete Deceit servers: inter-server traffic runs on
// the simulated network, while clients connect over real localhost TCP —
// the multi-process-on-one-box shape the reproduction targets.
type NFSCell struct {
	Net   *simnet.Network
	IDs   []simnet.NodeID
	Nodes []*NFSNode
}

// NewNFSCell starts n full servers; the first one initializes the cell root.
func NewNFSCell(n int) (*NFSCell, error) {
	return NewNFSCellParams(n, core.DefaultParams())
}

// NewNFSCellParams starts a cell whose new files default to params.
func NewNFSCellParams(n int, params core.Params) (*NFSCell, error) {
	return NewNFSCellStores(n, params, nil)
}

// NewNFSCellStores starts a cell whose server i persists into newStore(i);
// a nil factory (or a nil store from it) selects the default synchronous
// MemStore. Lets a harness back selected nodes with a LogStore so crashes
// exercise real log recovery.
func NewNFSCellStores(n int, params core.Params, newStore func(i int) (store.Store, error)) (*NFSCell, error) {
	c := &NFSCell{Net: simnet.NewNetwork()}
	for i := 0; i < n; i++ {
		c.IDs = append(c.IDs, simnet.NodeID(fmt.Sprintf("srv%d", i)))
	}
	for i := 0; i < n; i++ {
		var st store.Store
		if newStore != nil {
			var err error
			if st, err = newStore(i); err != nil {
				c.Close()
				return nil, err
			}
		}
		if st == nil {
			st = store.NewMemStore()
		}
		nd, err := c.StartNFSNode(i, st, i == 0, params)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Nodes = append(c.Nodes, nd)
	}
	return c, nil
}

// StartNFSNode boots server i with the given store.
func (c *NFSCell) StartNFSNode(i int, st store.Store, initRoot bool, params core.Params) (*NFSNode, error) {
	return c.startNFSNodeAddr(i, st, initRoot, params, "127.0.0.1:0")
}

// RestartNFSNode reboots a crashed node i with st, binding the NFS endpoint
// to addr — pass the node's previous address to simulate the restart of a
// server that clients and gateways will reconnect to.
func (c *NFSCell) RestartNFSNode(i int, st store.Store, addr string, params core.Params) (*NFSNode, error) {
	nd, err := c.startNFSNodeAddr(i, st, false, params, addr)
	if err != nil {
		return nil, err
	}
	c.Nodes[i] = nd
	return nd, nil
}

func (c *NFSCell) startNFSNodeAddr(i int, st store.Store, initRoot bool, params core.Params, addr string) (*NFSNode, error) {
	ep := c.Net.Attach(c.IDs[i])
	srv, err := server.New(server.Config{
		Transport:     ep,
		Peers:         c.IDs,
		Store:         st,
		ISIS:          testutil.FastISISOpts(),
		Core:          testutil.FastCoreOpts(),
		DefaultParams: params,
		InitRoot:      initRoot,
	})
	if err != nil {
		return nil, err
	}
	bound, err := srv.ServeNFS(addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &NFSNode{Server: srv, Store: st, Addr: bound}, nil
}

// Addrs returns the NFS endpoints of all live nodes.
func (c *NFSCell) Addrs() []string {
	out := make([]string, 0, len(c.Nodes))
	for _, nd := range c.Nodes {
		if nd != nil {
			out = append(out, nd.Addr)
		}
	}
	return out
}

// CrashNFS kills node i (server, endpoint and all).
func (c *NFSCell) CrashNFS(i int) store.Store {
	nd := c.Nodes[i]
	if nd == nil {
		return nil
	}
	st := nd.Store
	nd.Server.Close()
	c.Net.Detach(c.IDs[i])
	c.Nodes[i] = nil
	return st
}

// Close shuts the whole cell down.
func (c *NFSCell) Close() {
	for _, nd := range c.Nodes {
		if nd != nil {
			nd.Server.Close()
		}
	}
	c.Net.Close()
}
