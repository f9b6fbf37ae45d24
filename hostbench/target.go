package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gpmetis/internal/cluster"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// maxJobs bounds each node's job index. A terminal job keeps its parsed
// graph and request text until the index forgets it, several MB per
// large job, so the daemon's default of 4096 would let a long run hold
// gigabytes; 32 keeps the retained set, and so peak_rss_mb, bounded
// while still showing what retention costs.
const maxJobs = 32

// member is one in-process gpmetisd: a real server behind a real
// loopback listener, wrapped in a cluster node when it is part of a ring.
type member struct {
	id   int
	base string // http://host:port
	srv  *server.Server
	node *cluster.Node // nil on a single-node target
	hs   *http.Server
}

// target is the system under test: one node, or a ring of nodes that
// reach each other over loopback exactly as separate daemons would.
type target struct {
	members []*member
	ring    *cluster.Ring
	serving sync.WaitGroup
}

// bootSingle starts one standalone node with the given device slots.
func bootSingle(devices int) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := server.New(server.Config{Devices: devices, MaxJobs: maxJobs, Logger: obs.DiscardLogger()})
	t := &target{}
	t.serve(&member{id: 0, base: "http://" + ln.Addr().String(), srv: s}, s.Handler(), ln)
	return t, nil
}

// bootRing starts an n-node ring with the daemon's default replication,
// probe and anti-entropy settings, and cacheCap result-cache entries per
// node.
func bootRing(n, cacheCap int) (*target, error) {
	lns := make([]net.Listener, n)
	peers := make([]cluster.Peer, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{ID: i, Addr: ln.Addr().String()}
	}
	t := &target{}
	for i := range lns {
		s := server.New(server.Config{CacheCap: cacheCap, MaxJobs: maxJobs, Logger: obs.DiscardLogger(), JobIDPrefix: fmt.Sprintf("n%d-j", i)})
		nd, err := cluster.New(cluster.Config{NodeID: i, Peers: peers, Server: s, Logger: obs.DiscardLogger()})
		if err != nil {
			s.Close()
			for _, l := range lns[i:] {
				l.Close()
			}
			t.close()
			return nil, err
		}
		t.serve(&member{id: i, base: "http://" + peers[i].Addr, srv: s, node: nd}, nd.Handler(s.Handler()), lns[i])
	}
	t.ring = t.members[0].node.Ring()
	return t, nil
}

func (t *target) serve(m *member, h http.Handler, ln net.Listener) {
	m.hs = &http.Server{Handler: h, ReadHeaderTimeout: 30 * time.Second}
	t.members = append(t.members, m)
	t.serving.Add(1)
	go func() {
		defer t.serving.Done()
		m.hs.Serve(ln)
	}()
}

// route fills an input's ring placement: the key's owner, its replica
// holder, and the entry node — the one member outside the key's replica
// set, so a read is an entry-side parse plus a peek of the owner and a
// write is a forward whose replica lands on a third node.
func (t *target) route(in *input) {
	succs := t.ring.Successors(in.Key)
	in.Owner = t.members[succs[0].ID].base
	in.Succ = t.members[succs[1].ID].base
	in.Entry = t.members[succs[len(succs)-1].ID].base
}

// placed returns a copy of in routed on this target's ring.
func (t *target) placed(in *input) *input {
	w := *in
	t.route(&w)
	return &w
}

// close stops every node and waits for their serving goroutines.
func (t *target) close() {
	for _, m := range t.members {
		m.hs.Close()
	}
	t.serving.Wait()
	for _, m := range t.members {
		if m.node != nil {
			m.node.Close()
		}
		m.srv.Close()
	}
}
