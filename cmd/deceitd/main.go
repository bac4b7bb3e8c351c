// Command deceitd runs one Deceit server: it joins the cell over its
// inter-server transport, serves NFS/MOUNT/control over TCP, and stores
// replicas in a local directory.
//
// A three-server cell on one machine:
//
//	deceitd -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -nfs 127.0.0.1:8001 -store /tmp/d1 -init
//	deceitd -listen 127.0.0.1:7002 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -nfs 127.0.0.1:8002 -store /tmp/d2
//	deceitd -listen 127.0.0.1:7003 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 -nfs 127.0.0.1:8003 -store /tmp/d3
//
// Exactly one server per cell should be started with -init, which creates
// the root directory (§6.1: "adding new servers is simply a matter of
// configuring ISIS to run on the server, and executing the Deceit server
// daemon").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/store"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:7001", "inter-server transport address")
		peers    = flag.String("peers", "", "comma-separated transport addresses of all cell members (including this one)")
		nfsAddr  = flag.String("nfs", "127.0.0.1:8001", "NFS/MOUNT/control RPC endpoint")
		storeDir = flag.String("store", "", "non-volatile storage directory: an append-only wal plus checkpoints, one fsync per commit (empty = in-memory, nothing survives a restart)")
		initRoot = flag.Bool("init", false, "create the cell root directory if missing")
	)
	flag.Parse()

	tr, err := simnet.ListenTCP(*listen)
	if err != nil {
		log.Fatalf("deceitd: %v", err)
	}
	var peerIDs []simnet.NodeID
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerIDs = append(peerIDs, simnet.NodeID(p))
		}
	}
	if len(peerIDs) == 0 {
		peerIDs = []simnet.NodeID{tr.Local()}
	}

	var st store.Store
	if *storeDir == "" {
		log.Printf("deceitd: warning: no -store directory; this server keeps nothing across a restart")
		st = store.NewMemStore()
	} else {
		ls, err := store.OpenLog(*storeDir, store.LogOptions{})
		if err != nil {
			log.Fatalf("deceitd: %v", err)
		}
		st = ls
	}

	srv, err := server.New(server.Config{
		Transport: tr,
		Peers:     peerIDs,
		Store:     st,
		InitRoot:  *initRoot,
	})
	if err != nil {
		log.Fatalf("deceitd: %v", err)
	}
	bound, err := srv.ServeNFS(*nfsAddr)
	if err != nil {
		log.Fatalf("deceitd: %v", err)
	}
	fmt.Printf("deceitd: server %s serving NFS on %s (cell: %v)\n", srv.ID(), bound, peerIDs)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("deceitd: shutting down")
	srv.Close()
	if err := st.Close(); err != nil {
		log.Fatalf("deceitd: closing store: %v", err)
	}
}
