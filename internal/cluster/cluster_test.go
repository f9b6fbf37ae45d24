package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// ringNode is one in-process member of a test ring: a real server, a
// cluster node wrapping it, and a real TCP listener so peers can dial
// each other exactly as separate daemons would.
type ringNode struct {
	peer Peer
	srv  *server.Server
	node *Node
	hs   *http.Server
}

func (rn *ringNode) base() string { return "http://" + rn.peer.Addr }

// startTestRing boots n ring members on loopback listeners. The health
// prober is disabled; request-path strikes drive failover, which keeps
// the tests deterministic.
func startTestRing(t *testing.T, n int) []*ringNode {
	t.Helper()
	return startTestRingCfg(t, n, nil, nil)
}

// startTestRingCfg is startTestRing with per-node config hooks: srvCfg
// and nodeCfg (either may be nil) mutate each member's server and
// cluster configuration before boot. The anti-entropy loop is disabled
// by default so repairs only run when a test invokes them; hooks can
// re-enable it.
func startTestRingCfg(t *testing.T, n int,
	srvCfg func(i int, c *server.Config), nodeCfg func(i int, c *Config)) []*ringNode {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = Peer{ID: i, Addr: ln.Addr().String()}
	}
	nodes := make([]*ringNode, n)
	for i := 0; i < n; i++ {
		sc := server.Config{
			Devices: 1, QueueCap: 16, CacheCap: 32, Logger: obs.DiscardLogger(),
			JobIDPrefix: fmt.Sprintf("n%d-j", i),
		}
		if srvCfg != nil {
			srvCfg(i, &sc)
		}
		s := server.New(sc)
		cc := Config{
			NodeID: i, Peers: peers, Server: s,
			ProbeInterval: -1, AntiEntropyInterval: -1, Logger: obs.DiscardLogger(),
		}
		if nodeCfg != nil {
			nodeCfg(i, &cc)
		}
		nd, err := New(cc)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: nd.Handler(s.Handler())}
		go hs.Serve(lns[i])
		nodes[i] = &ringNode{peer: peers[i], srv: s, node: nd, hs: hs}
	}
	t.Cleanup(func() {
		for _, rn := range nodes {
			rn.hs.Close()
			rn.node.Close()
			rn.srv.Close()
		}
	})
	return nodes
}

func clusterGraphText(t *testing.T, g *gpmetis.Graph) string {
	t.Helper()
	var sb strings.Builder
	if err := gio.Write(&sb, g); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func clusterSubmit(t *testing.T, base string, req server.SubmitRequest) (server.JobStatus, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e server.ErrorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("submit to %s: HTTP %d %s (%s)", base, resp.StatusCode, e.Error, e.Code)
	}
	var st server.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st, resp.StatusCode
}

func clusterPoll(t *testing.T, base, id string) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func clusterCounters(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Counters
}

func sumCounter(t *testing.T, nodes []*ringNode, name string) float64 {
	t.Helper()
	total := 0.0
	for _, rn := range nodes {
		total += clusterCounters(t, rn.base())[name]
	}
	return total
}

// TestClusterRoutesToOneOwner is the acceptance scenario: identical
// submissions entering the ring at different nodes land on the digest's
// one owner; the second entry node answers from the owner's cache via a
// peek, with zero additional modeled partition seconds anywhere in the
// ring, and the result is bit-identical to a direct Partition call.
func TestClusterRoutesToOneOwner(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Delaunay(1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 7}
	direct, err := gpmetis.Partition(g, 4, gpmetis.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil || key == "" {
		t.Fatalf("KeyForRequest: key=%q err=%v", key, err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entries []*ringNode // the two non-owner members
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entries = append(entries, rn)
		}
	}

	// First submission enters at a non-owner: it must be forwarded to the
	// owner, and the entry node must proxy the polls there transparently.
	st, _ := clusterSubmit(t, entries[0].base(), req)
	st = clusterPoll(t, entries[0].base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("job state %s, error %q", st.State, st.Error)
	}
	if st.Cached {
		t.Error("first submission must not be a cache hit")
	}
	if st.Node != owner.Addr {
		t.Errorf("job ran on %q, ring owner is %q", st.Node, owner.Addr)
	}
	if fw := entries[0].node.Status().Forwards; fw != 1 {
		t.Errorf("entry node forwarded %d submissions, want 1", fw)
	}
	for v, p := range st.Result.Part {
		if p != direct.Part[v] {
			t.Fatalf("forwarded result differs from direct Partition at vertex %d (%d vs %d)",
				v, p, direct.Part[v])
		}
	}

	modeledBefore := sumCounter(t, nodes, "modeled.seconds")
	if modeledBefore <= 0 {
		t.Fatal("the first run must accumulate modeled seconds")
	}

	// The identical submission enters at the other non-owner: the peek
	// must answer it from the owner's cache without another forward.
	st2, code := clusterSubmit(t, entries[1].base(), req)
	if code != http.StatusOK || st2.State != server.StateDone || !st2.Cached {
		t.Fatalf("resubmit: code=%d state=%s cached=%t, want 200/done/true", code, st2.State, st2.Cached)
	}
	if st2.Node != owner.Addr {
		t.Errorf("peek answered from %q, want the owner %q", st2.Node, owner.Addr)
	}
	cs := entries[1].node.Status()
	if cs.PeekHits != 1 || cs.Forwards != 0 {
		t.Errorf("second entry: peek_hits=%d forwards=%d, want 1 and 0", cs.PeekHits, cs.Forwards)
	}
	if cs.NetModeledSeconds <= 0 || cs.NetMessages == 0 {
		t.Errorf("peek traffic must be charged to the modeled network (sec=%v msgs=%d)",
			cs.NetModeledSeconds, cs.NetMessages)
	}
	for v, p := range st2.Result.Part {
		if p != direct.Part[v] {
			t.Fatalf("peeked result differs from direct Partition at vertex %d (%d vs %d)",
				v, p, direct.Part[v])
		}
	}

	// Exactly one node executed the job, and the peek charged no
	// partition time anywhere in the ring.
	if done := sumCounter(t, nodes, "jobs.completed"); done != 1 {
		t.Errorf("ring completed %v jobs for one distinct submission, want 1", done)
	}
	if after := sumCounter(t, nodes, "modeled.seconds"); after != modeledBefore {
		t.Errorf("cache peek charged modeled partition time: %.9f -> %.9f", modeledBefore, after)
	}
}

// TestClusterFailoverOnDeadOwner: with the digest's owner gone, a
// submission entering elsewhere walks the ring to the next live
// successor, completes there, and the entry node accounts a failover.
func TestClusterFailoverOnDeadOwner(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(40, 40)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 11}
	direct, err := gpmetis.Partition(g, 4, gpmetis.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID == owner.ID {
			rn.hs.Close() // kill the owner before anyone submits
		} else if entry == nil {
			entry = rn
		}
	}

	st, _ := clusterSubmit(t, entry.base(), req)
	st = clusterPoll(t, entry.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("failover job state %s, error %q", st.State, st.Error)
	}
	if st.Node == owner.Addr {
		t.Errorf("job reports the dead owner %q as its home", owner.Addr)
	}
	if fo := entry.node.Status().Failovers; fo < 1 {
		t.Errorf("entry node recorded %d failovers, want >= 1", fo)
	}
	for v, p := range st.Result.Part {
		if p != direct.Part[v] {
			t.Fatalf("failover result differs from direct Partition at vertex %d (%d vs %d)",
				v, p, direct.Part[v])
		}
	}
}

// TestClusterForwardedJobPinned: a submission carrying the forwarding
// envelope must run where it lands, even when the ring says another
// node owns its digest — the loop guard that keeps divergent ring views
// from bouncing a job forever.
func TestClusterForwardedJobPinned(t *testing.T) {
	nodes := startTestRing(t, 3)

	g, err := gpmetis.Grid2D(30, 30)
	if err != nil {
		t.Fatal(err)
	}
	req := server.SubmitRequest{Graph: clusterGraphText(t, g), K: 4, Seed: 3}
	keyReq := req
	key, err := server.KeyForRequest(&keyReq)
	if err != nil {
		t.Fatal(err)
	}
	owner := nodes[0].node.Ring().Owner(key)
	var entry *ringNode
	for _, rn := range nodes {
		if rn.peer.ID != owner.ID {
			entry = rn
			break
		}
	}

	req.ForwardedBy = "10.0.0.99:9999" // claims to be already forwarded
	st, _ := clusterSubmit(t, entry.base(), req)
	st = clusterPoll(t, entry.base(), st.ID)
	if st.State != server.StateDone {
		t.Fatalf("pinned job state %s, error %q", st.State, st.Error)
	}
	if st.Node != entry.peer.Addr {
		t.Errorf("pinned job ran on %q, want the receiving node %q", st.Node, entry.peer.Addr)
	}
	if fw := entry.node.Status().Forwards; fw != 0 {
		t.Errorf("pinned job was re-forwarded %d times, want 0", fw)
	}
}

// TestClusterForwardedBounded: the entry node's record of forwarded jobs
// keeps only the newest MaxJobs, so it cannot grow for the life of the
// process, and the newest forward is still proxied to its owner.
func TestClusterForwardedBounded(t *testing.T) {
	const maxJobs = 3
	nodes := startTestRingCfg(t, 2, func(_ int, c *server.Config) { c.MaxJobs = maxJobs }, nil)
	entry := nodes[0]

	g, err := gpmetis.Grid2D(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	text := clusterGraphText(t, g)
	var last server.JobStatus
	forwarded := 0
	for seed := int64(1); forwarded < 2*maxJobs; seed++ {
		req := server.SubmitRequest{Graph: text, K: 2, Seed: seed}
		keyReq := req
		key, err := server.KeyForRequest(&keyReq)
		if err != nil {
			t.Fatal(err)
		}
		if entry.node.Ring().Owner(key).ID == entry.peer.ID {
			continue
		}
		last, _ = clusterSubmit(t, entry.base(), req)
		last = clusterPoll(t, entry.base(), last.ID)
		forwarded++
	}
	if fw := entry.node.Status().Forwards; fw != 2*maxJobs {
		t.Fatalf("entry node forwarded %d jobs, want %d", fw, 2*maxJobs)
	}
	entry.node.mu.Lock()
	held, order := len(entry.node.forwarded), len(entry.node.fwdOrder)
	_, newest := entry.node.forwarded[last.ID]
	entry.node.mu.Unlock()
	if held != maxJobs || order != maxJobs {
		t.Errorf("entry node remembers %d forwards (%d ordered), want %d", held, order, maxJobs)
	}
	if !newest {
		t.Error("the newest forward must still be remembered")
	}
	if last.State != server.StateDone || last.Node != nodes[1].peer.Addr {
		t.Errorf("newest forward: state %s on %q, want done on the owner %q",
			last.State, last.Node, nodes[1].peer.Addr)
	}
}

// TestClusterStatusOnHealthz: every ring member reports its identity,
// the member list, and per-peer health on /healthz.
func TestClusterStatusOnHealthz(t *testing.T) {
	nodes := startTestRing(t, 3)
	for i, rn := range nodes {
		resp, err := http.Get(rn.base() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h server.HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Cluster == nil {
			t.Fatalf("node %d: /healthz has no cluster block", i)
		}
		if h.Cluster.NodeID != i || h.Cluster.Addr != rn.peer.Addr {
			t.Errorf("node %d reports identity %d (%s)", i, h.Cluster.NodeID, h.Cluster.Addr)
		}
		if len(h.Cluster.Peers) != 3 {
			t.Errorf("node %d reports %d peers, want 3", i, len(h.Cluster.Peers))
		}
		selfSeen := false
		for _, p := range h.Cluster.Peers {
			if p.Self {
				selfSeen = true
				if p.ID != i {
					t.Errorf("node %d marks peer %d as self", i, p.ID)
				}
			}
			if p.State != NodeUp {
				t.Errorf("node %d sees peer %d as %s with no failures injected", i, p.ID, p.State)
			}
		}
		if !selfSeen {
			t.Errorf("node %d does not mark itself in the peer list", i)
		}
	}
}

// TestClusterMetricsExported: the gpmetisd_cluster_* series appear on
// /metrics with the node's identity and per-peer up gauges.
func TestClusterMetricsExported(t *testing.T) {
	nodes := startTestRing(t, 3)
	resp, err := http.Get(nodes[0].base() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	text := b.String()
	for _, want := range []string{
		"gpmetisd_cluster_node_id 0",
		"gpmetisd_cluster_ring_size 3",
		"gpmetisd_cluster_forwards",
		"gpmetisd_cluster_peek_hits",
		"gpmetisd_cluster_peek_misses",
		"gpmetisd_cluster_failovers_total",
		"gpmetisd_cluster_net_modeled_seconds",
		"gpmetisd_cluster_net_messages",
		"gpmetisd_cluster_replicas 2",
		"gpmetisd_cluster_replica_pushes",
		"gpmetisd_cluster_replica_stores",
		"gpmetisd_cluster_replica_hits",
		"gpmetisd_cluster_handoff_hinted",
		"gpmetisd_cluster_handoff_drained",
		"gpmetisd_cluster_handoff_hints_outstanding",
		"gpmetisd_cluster_repair_pushed",
		"gpmetisd_cluster_repair_pulled",
		`gpmetisd_cluster_node_up{node="1"} 1`,
		`gpmetisd_cluster_node_up{node="2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
	if strings.Contains(text, fmt.Sprintf(`gpmetisd_cluster_node_up{node="0"}`)) {
		t.Error("a node must not export an up gauge for itself")
	}
}
