package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// Defaults for the cluster tier's knobs.
const (
	// DefaultProbeInterval is how often the background prober checks every
	// peer's /healthz.
	DefaultProbeInterval = time.Second
	// DefaultStrikeThreshold is how many consecutive failures (probes or
	// request-path connection errors) mark a peer down.
	DefaultStrikeThreshold = 2
	// DefaultReplicas is the replication factor: each completed result
	// lives on its ring owner plus the next R−1 distinct successors.
	DefaultReplicas = 2
	// DefaultAntiEntropyInterval is the cadence of the background digest
	// summary exchange that repairs replica divergence.
	DefaultAntiEntropyInterval = 5 * time.Second
)

// Config wires one ring node.
type Config struct {
	// NodeID is this node's identity; it must appear in Peers.
	NodeID int
	// Peers is the full member list (see LoadPeersFile). Every node of the
	// ring must load the same list.
	Peers []Peer
	// VNodes is the per-peer virtual node count; 0 means DefaultVNodes.
	VNodes int
	// Server is the local serving subsystem this node routes into.
	Server *server.Server
	// Machine supplies the α+βn network parameters inter-node traffic is
	// charged against; nil means gpmetis.DefaultMachine().
	Machine *gpmetis.Machine
	// ProbeInterval is the health-probe cadence (0 means
	// DefaultProbeInterval; < 0 disables the prober, for tests that drive
	// health by hand).
	ProbeInterval time.Duration
	// StrikeThreshold is how many consecutive failures mark a peer down
	// (0 means DefaultStrikeThreshold).
	StrikeThreshold int
	// Logger receives the node's operational logs; nil means a text
	// handler on os.Stderr.
	Logger *slog.Logger
	// Client performs forwards, peeks, and proxies; nil means a client
	// with a 15s timeout.
	Client *http.Client
	// Replicas is the replication factor: completed results are pushed
	// asynchronously to the next Replicas−1 live ring successors. 0 means
	// DefaultReplicas; 1 disables replication.
	Replicas int
	// AntiEntropyInterval is the cadence of the background repair sweep
	// (0 means DefaultAntiEntropyInterval; < 0 disables the loop, for
	// tests that call AntiEntropyNow by hand).
	AntiEntropyInterval time.Duration
	// HintDir, when non-empty, persists handoff hints as one JSONL file
	// per peer, so hints survive a restart of the hinting node.
	HintDir string
	// OnDecommission, when non-nil, is invoked (once, asynchronously)
	// after POST /admin/decommission has pushed this node's cache to its
	// new owners and announced departure — the daemon hooks its graceful
	// drain-and-exit path here.
	OnDecommission func()
}

// Node is one member of the ring: it wraps the local server's HTTP
// handler, owning every submission whose digest hashes to it and
// routing the rest — peek the owner's cache first, forward on a miss,
// fail over to the next live ring successor when the owner is down.
// All inter-node traffic is charged against the modeled network.
type Node struct {
	cfg    Config
	self   Peer
	srv    *server.Server
	inner  http.Handler
	net    *NetModel
	log    *slog.Logger
	client *http.Client
	probe  *http.Client

	// ringMu guards the mutable membership view: the effective ring,
	// the full configured peer list (departed members included), the
	// departure marks, and the health map's structure (each entry has
	// its own lock). Membership changes — a peers.json reload, a leave
	// or join announcement — rebuild the ring under the write lock.
	ringMu   sync.RWMutex
	ring     *Ring
	peersAll []Peer
	departed map[int]bool
	health   map[int]*nodeHealth // keyed by peer ID; no entry for self

	// forwarded remembers where each forwarded job lives — and the trace
	// context its forward carried — so status, trace, profile, and cancel
	// requests follow it transparently and GET /jobs/{id}/trace can
	// stitch the remote spans under the entry node's forward span.
	// fwdOrder lists its keys oldest first; rememberForward evicts from
	// the front beyond the server's MaxJobs.
	mu        sync.Mutex
	forwarded map[string]fwdInfo // job ID -> owning peer + trace context
	fwdOrder  []string

	hints *hintTable
	repl  chan replTask

	// spans holds background-round traces (replication, handoff, repair,
	// decommission) for GET /internal/trace/{trace_id}; rpc aggregates
	// per-peer × per-RPC-type real-wall latency and errors; spanSeq mints
	// node-unique cluster-side span ids.
	spans   *obs.SpanStore
	rpc     *rpcMetrics
	spanSeq atomic.Int64

	forwards      atomic.Int64
	peekHits      atomic.Int64
	peekMisses    atomic.Int64
	failovers     atomic.Int64
	replicaPushes atomic.Int64
	replicaStores atomic.Int64
	replicaHits   atomic.Int64
	handoffHinted atomic.Int64
	handoffDrain  atomic.Int64
	repairPushed  atomic.Int64
	repairPulled  atomic.Int64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds the node, installs its status snapshot on the server
// (/healthz, /admin/status, gpmetisd_cluster_*), and starts the health
// prober.
func New(cfg Config) (*Node, error) {
	if cfg.Server == nil {
		return nil, fmt.Errorf("cluster: Config.Server is required")
	}
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	var self Peer
	found := false
	for _, p := range ring.Peers() {
		if p.ID == cfg.NodeID {
			self, found = p, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("cluster: node id %d not in the peer list", cfg.NodeID)
	}
	if cfg.StrikeThreshold == 0 {
		cfg.StrikeThreshold = DefaultStrikeThreshold
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = DefaultReplicas
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.AntiEntropyInterval == 0 {
		cfg.AntiEntropyInterval = DefaultAntiEntropyInterval
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NewLogger(os.Stderr, obs.LogText, slog.LevelInfo)
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 15 * time.Second}
	}
	n := &Node{
		cfg:       cfg,
		self:      self,
		ring:      ring,
		peersAll:  ring.Peers(),
		departed:  map[int]bool{},
		srv:       cfg.Server,
		net:       NewNetModel(cfg.Machine),
		log:       cfg.Logger.With("node_id", self.ID),
		client:    cfg.Client,
		probe:     &http.Client{Timeout: 2 * time.Second},
		health:    map[int]*nodeHealth{},
		forwarded: map[string]fwdInfo{},
		hints:     newHintTable(cfg.HintDir),
		repl:      make(chan replTask, 256),
		spans:     obs.NewSpanStore(0),
		rpc:       newRPCMetrics(),
		stop:      make(chan struct{}),
	}
	for _, p := range ring.Peers() {
		if p.ID != self.ID {
			n.health[p.ID] = newNodeHealth()
			// Eager declaration: every (peer, rpc-type) series exists on a
			// fresh /metrics scrape, not after the first call of its kind.
			for _, rpc := range rpcTypes {
				n.rpc.declare(p.ID, rpc)
			}
		}
	}
	if err := n.hints.load(); err != nil {
		n.log.Warn("hint journal load failed; starting with empty hints", "error", err.Error())
	}
	n.srv.SetNodeID(fmt.Sprintf("%d", self.ID))
	n.srv.SetClusterStatus(n.Status)
	n.srv.SetPromExtra(n.rpc.snapshot)
	if cfg.ProbeInterval > 0 {
		n.wg.Add(1)
		go n.probeLoop()
	}
	if cfg.Replicas > 1 {
		n.srv.SetResultHook(n.enqueueReplication)
		n.wg.Add(1)
		go n.replicateLoop()
		if cfg.AntiEntropyInterval > 0 {
			n.wg.Add(1)
			go n.antiEntropyLoop()
		}
	}
	return n, nil
}

// Close stops every background goroutine the node owns — the health
// prober, the replicator, the anti-entropy sweep, and any in-flight
// hint drains — and uninstalls the server hooks. The wrapped handler
// keeps serving (the server owns its own shutdown); routing continues
// with frozen health.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.srv.SetResultHook(nil)
		n.srv.SetPromExtra(nil)
		close(n.stop)
		n.wg.Wait()
	})
}

// Ring returns the node's current effective ring (departed members
// excluded), for tests and tooling.
func (n *Node) Ring() *Ring { return n.currentRing() }

// currentRing snapshots the effective ring under the membership lock.
func (n *Node) currentRing() *Ring {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.ring
}

// peerHealth returns the health entry for a peer ID, nil for self or
// unknown peers.
func (n *Node) peerHealth(id int) *nodeHealth {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	return n.health[id]
}

// otherPeers snapshots the configured members other than self that have
// not announced departure — the probe, replication, and repair targets.
func (n *Node) otherPeers() []Peer {
	n.ringMu.RLock()
	defer n.ringMu.RUnlock()
	out := make([]Peer, 0, len(n.peersAll))
	for _, p := range n.peersAll {
		if p.ID != n.self.ID && !n.departed[p.ID] {
			out = append(out, p)
		}
	}
	return out
}

// Status snapshots the node for the wire — the callback behind the
// server's /healthz, ops view, and cluster metric series.
func (n *Node) Status() *server.ClusterStatus {
	cs := &server.ClusterStatus{
		NodeID:            n.self.ID,
		Addr:              n.self.Addr,
		Forwards:          n.forwards.Load(),
		PeekHits:          n.peekHits.Load(),
		PeekMisses:        n.peekMisses.Load(),
		Failovers:         n.failovers.Load(),
		NetModeledSeconds: n.net.Seconds(),
		NetMessages:       n.net.Messages(),
		Replicas:          n.cfg.Replicas,
		ReplicaPushes:     n.replicaPushes.Load(),
		ReplicaStores:     n.replicaStores.Load(),
		ReplicaHits:       n.replicaHits.Load(),
		HandoffHinted:     n.handoffHinted.Load(),
		HandoffDrained:    n.handoffDrain.Load(),
		HintsOutstanding:  n.hints.outstanding(),
		RepairPushed:      n.repairPushed.Load(),
		RepairPulled:      n.repairPulled.Load(),
	}
	n.ringMu.RLock()
	cs.VNodes = n.ring.VNodes()
	for _, p := range n.peersAll {
		ps := server.ClusterPeerStatus{
			ID: p.ID, Addr: p.Addr, Self: p.ID == n.self.ID,
			State: NodeUp, Left: n.departed[p.ID],
		}
		if h := n.health[p.ID]; h != nil {
			ps.State, ps.Strikes, ps.Downs = h.snapshot()
		}
		cs.Peers = append(cs.Peers, ps)
	}
	n.ringMu.RUnlock()
	return cs
}

// Handler wraps the server's HTTP API with the ring's routing layer:
//
//	GET  /internal/cache/{digest}  cross-node cache peek (200 result, 404)
//	PUT  /internal/cache/{digest}  replica store (replication, handoff, repair)
//	POST /internal/cache/summary   anti-entropy digest-summary exchange
//	GET  /internal/trace/{trace_id} this node's spans under a trace (stitching)
//	POST /internal/ring/leave      a member announced its departure
//	POST /internal/ring/join       a departed member announced its return
//	GET  /admin/cluster/status     federated fleet view (HTML; .json for data)
//	POST /admin/decommission       retire this node: push cache, announce leave
//	POST /admin/rejoin             announce return and run catch-up repair
//	POST /jobs                     route by digest: local, peek, forward
//	GET/DELETE /jobs/{id}[...]     proxied to the owner for forwarded jobs
//	                               (a forwarded job's /trace is stitched)
//
// Everything else passes straight through to inner.
func (n *Node) Handler(inner http.Handler) http.Handler {
	n.inner = inner
	mux := http.NewServeMux()
	mux.HandleFunc("GET /internal/cache/{digest}", n.handlePeek)
	mux.HandleFunc("PUT /internal/cache/{digest}", n.handleReplicaPut)
	mux.HandleFunc("POST /internal/cache/summary", n.handleSummary)
	mux.HandleFunc("GET /internal/trace/{trace_id}", n.handleTraceFetch)
	mux.HandleFunc("GET /admin/cluster/status", n.handleFleetHTML)
	mux.HandleFunc("GET /admin/cluster/status.json", n.handleFleetJSON)
	mux.HandleFunc("POST /internal/ring/leave", n.handleLeave)
	mux.HandleFunc("POST /internal/ring/join", n.handleJoin)
	mux.HandleFunc("POST /admin/decommission", n.handleDecommission)
	mux.HandleFunc("POST /admin/rejoin", n.handleRejoin)
	mux.HandleFunc("POST /jobs", n.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", n.proxyOrLocal)
	mux.HandleFunc("DELETE /jobs/{id}", n.proxyOrLocal)
	mux.HandleFunc("GET /jobs/{id}/trace", n.proxyOrLocal)
	mux.HandleFunc("GET /jobs/{id}/profile", n.proxyOrLocal)
	mux.Handle("/", inner)
	return mux
}

// handlePeek answers a peer's cache probe from the local cache, without
// touching hit/miss accounting (Cache.Peek): the requester pays the
// modeled network cost and keeps the peek statistics.
func (n *Node) handlePeek(w http.ResponseWriter, r *http.Request) {
	res, ok := n.srv.PeekCached(r.PathValue("digest"))
	if !ok {
		writeJSON(w, http.StatusNotFound,
			server.ErrorResponse{Error: "not cached here", Code: server.CodeNotFound})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleSubmit is the routing core. Forwarded submissions are pinned
// local (loop guard); everything else walks the ring from the digest's
// owner: serve locally when this node is the first live candidate,
// otherwise peek the candidate's cache and forward on a miss. A dead
// candidate is struck and the walk continues — that continuation is the
// failover path.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest,
			server.ErrorResponse{Error: fmt.Sprintf("read body: %v", err), Code: server.CodeBadRequest})
		return
	}
	var req server.SubmitRequest
	if json.Unmarshal(body, &req) != nil || req.ForwardedBy != "" {
		// Unparsable bodies get the server's canonical 400; forwarded jobs
		// are pinned here — re-forwarding could loop if ring views diverge.
		n.serveLocal(w, r, body)
		return
	}
	key, err := server.KeyForRequest(&req)
	if err != nil || key == "" {
		// Invalid requests fail locally with the canonical error; NoCache
		// submissions have no digest to route on and run wherever they land.
		n.serveLocal(w, r, body)
		return
	}

	// The distributed trace starts here, at the entry node: peeks and the
	// forward carry this id, and the owner's job adopts it, so the whole
	// routed submission is one trace regardless of where it lands. (A
	// submission served locally mints its own id at registration and this
	// one is simply unused.)
	traceID := obs.NewTraceID()

	ring := n.currentRing()
	owner := ring.Owner(key)
	succs := ring.Successors(key)
	for i, p := range succs {
		if p.ID == n.self.ID {
			// This node is the first live candidate. Before recomputing
			// work a dead owner may already have finished, consult the
			// untried members of the key's replica set: a replicated
			// entry answers bit-identically at zero modeled partition
			// cost, and read-repairs the local cache on the way through.
			if res, from, ok := n.consultReplicas(key, succs, i); ok {
				n.noteFailover(owner, from, key)
				writeJSON(w, http.StatusOK, server.JobStatus{
					State: server.StateDone, Cached: true, Device: -1,
					Node: from.Addr, Result: res,
				})
				return
			}
			n.noteFailover(owner, p, key)
			n.serveLocal(w, r, body)
			return
		}
		if h := n.peerHealth(p.ID); h != nil && h.down() {
			continue
		}
		res, found, peekErr := n.peekRemote(p, key, traceID)
		if peekErr != nil {
			n.strikePeer(p, "peek: "+peekErr.Error())
			continue
		}
		if found {
			n.peekHits.Add(1)
			n.noteFailover(owner, p, key)
			n.srv.RecordTracedEvent(obs.EvClusterPeekHit, traceID,
				fmt.Sprintf("node %d answered digest %.12s", p.ID, key))
			writeJSON(w, http.StatusOK, server.JobStatus{
				State: server.StateDone, Cached: true, Device: -1,
				Node: p.Addr, Result: res,
			})
			return
		}
		n.peekMisses.Add(1)
		status, respBody, fi, fwdErr := n.forward(p, req, key, traceID)
		if fwdErr != nil {
			n.strikePeer(p, "forward: "+fwdErr.Error())
			continue
		}
		n.clearStrikes(p)
		n.forwards.Add(1)
		n.noteFailover(owner, p, key)
		n.srv.RecordTracedEvent(obs.EvClusterForward, traceID,
			fmt.Sprintf("digest %.12s -> node %d", key, p.ID))
		if status == http.StatusOK || status == http.StatusAccepted {
			var st server.JobStatus
			if json.Unmarshal(respBody, &st) == nil && st.ID != "" {
				n.rememberForward(st.ID, fi)
			}
		}
		relay(w, status, respBody)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{
		Error: "no live ring node reachable for this job",
		Code:  server.CodeClusterUnreachable,
	})
}

// serveLocal hands the submission to the wrapped server and stamps this
// node's address into successful JobStatus answers, so entry nodes and
// clients learn where the job lives.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	cw := newCaptureWriter()
	n.inner.ServeHTTP(cw, r2)
	relay(w, cw.status, n.patchStatusBody(cw.status, cw.body.Bytes()))
}

// patchStatusBody stamps this node's address into a successful
// JobStatus body; anything that is not a job status passes through
// untouched.
func (n *Node) patchStatusBody(status int, out []byte) []byte {
	if status != http.StatusOK && status != http.StatusAccepted {
		return out
	}
	var st server.JobStatus
	if json.Unmarshal(out, &st) != nil || st.ID == "" {
		return out
	}
	st.Node = n.self.Addr
	b, err := json.Marshal(st)
	if err != nil {
		return out
	}
	return append(b, '\n')
}

// peekRemote asks peer whether it already caches digest. Both legs of
// the probe are charged against the modeled network; the real wall cost
// lands in the per-peer rpc histograms, and the routed submission's
// trace id rides the header.
func (n *Node) peekRemote(p Peer, digest, traceID string) (*server.JobResult, bool, error) {
	n.net.Charge(len(digest))
	req, err := http.NewRequest(http.MethodGet, "http://"+p.Addr+"/internal/cache/"+digest, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := n.doRPC(n.client, p, rpcPeek, obs.TraceContext{TraceID: traceID}, req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	n.net.Charge(len(b))
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("peek status %d", resp.StatusCode)
	}
	var res server.JobResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, false, err
	}
	return &res, true, nil
}

// forward ships the submission to peer with the forwarding envelope set:
// ForwardedBy pins the job there, ForwardNetSeconds carries the request
// leg's modeled cost into the job's lifecycle trace, and the trace
// fields (mirrored in the X-Gpmetis-Trace header) make the remote job
// adopt this entry node's trace id and parent its spans under the
// forward span minted here. The returned fwdInfo is what the stitcher
// needs later: the owner, the trace context, and the measured RTT.
func (n *Node) forward(p Peer, req server.SubmitRequest, key, traceID string) (int, []byte, fwdInfo, error) {
	fi := fwdInfo{
		peer:    p,
		traceID: traceID,
		spanID:  n.nextSpanID(),
		sentAt:  time.Now(),
	}
	req.ForwardedBy = n.self.Addr
	req.ForwardTraceID = traceID
	req.ForwardSpanID = fi.spanID
	req.ForwardWallUnixNano = fi.sentAt.UnixNano()
	payload, err := json.Marshal(&req)
	if err != nil {
		return 0, nil, fi, err
	}
	req.ForwardNetSeconds = n.net.Charge(len(payload))
	fi.netSeconds = req.ForwardNetSeconds
	// Re-marshal with the charge embedded; the size delta is noise next to
	// the graph text that dominates the payload.
	payload, err = json.Marshal(&req)
	if err != nil {
		return 0, nil, fi, err
	}
	hreq, err := http.NewRequest(http.MethodPost, "http://"+p.Addr+"/jobs", bytes.NewReader(payload))
	if err != nil {
		return 0, nil, fi, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	tc := obs.TraceContext{TraceID: traceID, SpanID: fi.spanID, WallUnixNano: fi.sentAt.UnixNano()}
	resp, err := n.doRPC(n.client, p, rpcForward, tc, hreq)
	if err != nil {
		return 0, nil, fi, err
	}
	fi.rtt = time.Since(fi.sentAt).Seconds()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fi, err
	}
	n.net.Charge(len(b))
	return resp.StatusCode, b, fi, nil
}

// rememberForward records where a forwarded job lives. Like the job
// index it mirrors, the record is bounded by the server's MaxJobs: the
// oldest forwards are forgotten first, after which lookups of their IDs
// are served locally (404) instead of proxied.
func (n *Node) rememberForward(id string, fi fwdInfo) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.forwarded[id]; !ok {
		n.fwdOrder = append(n.fwdOrder, id)
	}
	n.forwarded[id] = fi
	for len(n.fwdOrder) > n.srv.MaxJobs() {
		delete(n.forwarded, n.fwdOrder[0])
		n.fwdOrder = n.fwdOrder[1:]
	}
}

// proxyOrLocal serves job lookups: jobs this node forwarded are fetched
// from their owner (the modeled network pays for both legs), everything
// else is local. A forwarded job's trace request is special: instead of
// relaying the owner's document verbatim, the entry node stitches its
// own forward span and the owner's spans into one multi-process trace.
func (n *Node) proxyOrLocal(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	n.mu.Lock()
	fi, ok := n.forwarded[id]
	n.mu.Unlock()
	if !ok {
		// Local job: serve it here and stamp this node's address into the
		// status, so polls (not just submissions) say where the job lives.
		cw := newCaptureWriter()
		n.inner.ServeHTTP(cw, r)
		relay(w, cw.status, n.patchStatusBody(cw.status, cw.body.Bytes()))
		return
	}
	p := fi.peer
	if r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/trace") {
		if n.stitchForwardedTrace(w, fi) {
			return
		}
		// Stitching failed (owner unreachable, trace evicted); fall back
		// to the plain proxy so the client still gets the owner's view.
	}
	n.net.Charge(len(r.URL.Path))
	req2, err := http.NewRequestWithContext(r.Context(), r.Method, "http://"+p.Addr+r.URL.Path, nil)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError,
			server.ErrorResponse{Error: err.Error(), Code: server.CodeBadRequest})
		return
	}
	resp, err := n.doRPC(n.client, p, rpcProxy, obs.TraceContext{TraceID: fi.traceID, SpanID: fi.spanID}, req2)
	if err != nil {
		n.strikePeer(p, "proxy: "+err.Error())
		writeJSON(w, http.StatusBadGateway, server.ErrorResponse{
			Error: fmt.Sprintf("owning node %d (%s) unreachable: %v", p.ID, p.Addr, err),
			Code:  server.CodeNodeUnreachable,
		})
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		n.strikePeer(p, "proxy read: "+err.Error())
		writeJSON(w, http.StatusBadGateway, server.ErrorResponse{
			Error: fmt.Sprintf("owning node %d (%s) failed mid-response: %v", p.ID, p.Addr, err),
			Code:  server.CodeNodeUnreachable,
		})
		return
	}
	n.net.Charge(len(b))
	n.clearStrikes(p)
	relay(w, resp.StatusCode, b)
}

// noteFailover accounts a submission that landed on a ring successor
// instead of the digest's owner.
func (n *Node) noteFailover(owner, got Peer, key string) {
	if owner.ID == got.ID {
		return
	}
	n.failovers.Add(1)
	detail := fmt.Sprintf("digest %.12s: owner %d down, routed to successor %d", key, owner.ID, got.ID)
	n.srv.RecordEvent(obs.EvClusterFailover, detail)
	n.log.Warn("cluster failover", "digest", key[:12], "owner", owner.ID, "successor", got.ID)
}

// strikePeer records a request-path failure against a peer, marking it
// down at the strike threshold.
func (n *Node) strikePeer(p Peer, detail string) {
	h := n.peerHealth(p.ID)
	if h == nil {
		return
	}
	if h.strike(n.cfg.StrikeThreshold) {
		n.srv.RecordEvent(obs.EvNodeDown, fmt.Sprintf("node %d (%s): %s", p.ID, p.Addr, detail))
		n.log.Warn("peer marked down", "peer", p.ID, "addr", p.Addr, "cause", detail)
	}
}

// clearStrikes resets a peer's failure streak after it answered cleanly.
func (n *Node) clearStrikes(p Peer) {
	if h := n.peerHealth(p.ID); h != nil {
		h.clearStrikes()
	}
}

// probeLoop checks every peer's /healthz at the configured cadence.
// Probes of down peers count toward their reinstatement budget; probes
// of up peers clear or accumulate strikes. Each probe is charged to the
// modeled network like any other message.
func (n *Node) probeLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			for _, p := range n.otherPeers() {
				n.probePeer(p)
			}
		}
	}
}

// probePeer runs one health probe against p and folds the outcome into
// its quarantine state machine.
func (n *Node) probePeer(p Peer) {
	h := n.peerHealth(p.ID)
	if h == nil {
		return
	}
	n.net.Charge(0)
	var resp *http.Response
	req, err := http.NewRequest(http.MethodGet, "http://"+p.Addr+"/healthz", nil)
	if err == nil {
		// Each probe is its own (tiny) trace: health checking is traffic
		// too, and a probe storm should be attributable in peer logs.
		resp, err = n.doRPC(n.probe, p, rpcProbe, obs.TraceContext{TraceID: obs.NewTraceID()}, req)
	}
	ok := err == nil && resp.StatusCode == http.StatusOK
	if resp != nil {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		n.net.Charge(len(b))
	}
	wasDown := h.down()
	if ok {
		if h.probeResult(true) {
			n.srv.RecordEvent(obs.EvNodeUp, fmt.Sprintf("node %d (%s) reinstated", p.ID, p.Addr))
			n.log.Info("peer reinstated", "peer", p.ID, "addr", p.Addr)
			n.spawnDrain(p)
		}
		return
	}
	if wasDown {
		h.probeResult(false)
		return
	}
	n.strikePeer(p, "health probe failed")
}

// captureWriter buffers an inner handler's response so the routing layer
// can patch the body before relaying it.
type captureWriter struct {
	status int
	header http.Header
	body   bytes.Buffer
}

func newCaptureWriter() *captureWriter {
	return &captureWriter{status: http.StatusOK, header: http.Header{}}
}

func (c *captureWriter) Header() http.Header         { return c.header }
func (c *captureWriter) WriteHeader(code int)        { c.status = code }
func (c *captureWriter) Write(b []byte) (int, error) { return c.body.Write(b) }

// relay writes a buffered JSON response through to the real writer.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
