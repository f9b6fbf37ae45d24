package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// Version identifies the serving subsystem build, reported by /healthz
// and the gpmetisd_build_info metric.
const Version = "0.6.0"

// Config sizes the serving subsystem. Zero values take the defaults
// noted per field.
type Config struct {
	// Devices is the scheduler pool size: how many jobs run concurrently,
	// each on a private clone of the machine model (default 2).
	Devices int
	// QueueCap bounds the job queue; submissions beyond it are rejected
	// with ErrQueueFull (default 64).
	QueueCap int
	// CacheCap bounds the result cache in entries; < 0 disables caching
	// (default 128).
	CacheCap int
	// Machine is the base machine model each device slot clones; nil
	// means gpmetis.DefaultMachine().
	Machine *gpmetis.Machine
	// DefaultDeadline bounds jobs that set no deadline_ms; 0 means
	// unbounded.
	DefaultDeadline time.Duration
	// MaxJobs bounds the in-memory job index; the oldest terminal jobs
	// are forgotten beyond it (default 4096).
	MaxJobs int
	// JournalPath, when non-empty, enables the durable job journal: every
	// accepted job and its outcome is appended (fsynced) to this JSONL
	// file, and a restarted server replays it — completed results are
	// served again, interrupted jobs are re-admitted.
	JournalPath string
	// CheckpointDir, when non-empty, makes single-device GP-metis jobs
	// snapshot at every level boundary; after a crash the replayed jobs
	// resume from their last snapshot instead of starting over.
	CheckpointDir string
	// JournalRotateEvery compacts the journal after this many appends
	// (default 4096): terminal jobs collapse to submit+outcome pairs and
	// forgotten jobs drop out.
	JournalRotateEvery int
	// QuarantineThreshold is how many consecutive modeled device faults
	// put a pool slot into probation (default 3).
	QuarantineThreshold int
	// QuarantineBackoff is the base modeled-seconds probation budget a
	// quarantined slot must spend on health probes before reinstatement;
	// it doubles with every quarantine of the same slot (default 0.002).
	QuarantineBackoff float64
	// Logger receives structured operational logs. Every job-scoped line
	// carries job_id and trace_id attributes. Nil means a text handler on
	// os.Stderr at info level; use obs.DiscardLogger to silence.
	Logger *slog.Logger
	// SLO configures the service-level objectives evaluated at GET /slo
	// and exported as gpmetisd_slo_* metrics; zero fields take the
	// obs.SLOConfig defaults (2s latency at 95%, 99% availability, 5m/1h
	// burn windows).
	SLO obs.SLOConfig
	// EventBuffer sizes the lifecycle flight recorder: how many recent
	// events GET /admin/events retains (default 256).
	EventBuffer int
	// Tenants configures multi-tenant admission: per-tenant weight,
	// max-queued quota, and token-bucket rate limits. Nil means every
	// tenant runs under the built-in default contract (weight 1, no
	// quota, no rate limit). See LoadTenantsFile for the JSON form.
	Tenants TenantsConfig
	// Brownout tunes the overload ladder (queue-wait burn windows, shed
	// and degrade thresholds); zero fields take the BrownoutConfig
	// defaults. Set Brownout.Disable to pin the ladder off.
	Brownout BrownoutConfig
	// Now is the wall clock behind admission control (token buckets, the
	// brownout windows); nil means time.Now. Injectable for tests.
	Now func() time.Time
	// JobIDPrefix prefixes generated job IDs (default "j"). Cluster nodes
	// set a per-node prefix ("n0-j", "n1-j", ...) so IDs are unique across
	// the ring and an entry node's forwarding table can never confuse a
	// local job with one it forwarded elsewhere.
	JobIDPrefix string
}

func (c Config) withDefaults() Config {
	if c.Devices == 0 {
		c.Devices = 2
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.CacheCap == 0 {
		c.CacheCap = 128
	}
	if c.CacheCap < 0 {
		c.CacheCap = 0
	}
	if c.Machine == nil {
		c.Machine = gpmetis.DefaultMachine()
	}
	if c.MaxJobs == 0 {
		c.MaxJobs = 4096
	}
	if c.JournalRotateEvery == 0 {
		c.JournalRotateEvery = 4096
	}
	if c.QuarantineThreshold == 0 {
		c.QuarantineThreshold = 3
	}
	if c.QuarantineBackoff == 0 {
		c.QuarantineBackoff = 0.002
	}
	if c.Logger == nil {
		c.Logger = obs.NewLogger(os.Stderr, obs.LogText, slog.LevelInfo)
	}
	c.SLO = c.SLO.WithDefaults()
	if c.EventBuffer == 0 {
		c.EventBuffer = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.JobIDPrefix == "" {
		c.JobIDPrefix = "j"
	}
	return c
}

// Server owns the queue, the device pool, the result cache, the job
// index, and (when configured) the durable journal. Create with New,
// serve its Handler, and Close on shutdown.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	cache   *Cache
	fq      *fairQueue
	tenants *tenantTable
	est     *estimator
	brown   *brownout
	pool    *pool
	journal *Journal

	// brownMu serializes brownout level transitions and shed passes so
	// the begin/end events pair up and victims are shed exactly once.
	brownMu sync.Mutex

	log      *slog.Logger
	slo      *obs.SLO
	events   *obs.EventRing
	draining atomic.Bool

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing and retention
	seq      int
	inflight map[string]*Job // cache key -> live leader (single-flight)

	journalWarn sync.Once

	// clusterFn, when installed via SetClusterStatus, snapshots the ring
	// tier's state for /healthz, the ops view, and the cluster metric
	// series. The server only consumes plain ClusterStatus data, so
	// internal/cluster can depend on this package without a cycle.
	clusterMu sync.Mutex
	clusterFn func() *ClusterStatus

	// resultFn, when installed via SetResultHook, is called with the
	// content key and result of every job that completes fresh on this
	// node — not cache hits, not coalesced followers, not journal
	// replays. The cluster tier hangs replication off it; the same
	// no-cycle rule as clusterFn applies.
	resultMu sync.Mutex
	resultFn func(key string, res *JobResult)

	// promFn, when installed via SetPromExtra, contributes extra samples
	// and labeled histograms to the /metrics exposition — the cluster
	// tier's per-peer RPC series. Same no-cycle rule as clusterFn.
	promMu sync.Mutex
	promFn func() ([]obs.PromSample, []obs.PromHistogram)

	// nodeIDv holds this node's cluster identity ("" standalone; set once
	// by the cluster tier at startup). Read on every log line and
	// flight-recorder event, hence the atomic.
	nodeIDv atomic.Value

	// replicaKeys (guarded by mu) tracks cache entries this node holds
	// as a ring replica of a peer's work, so journal rotation preserves
	// them and a restart re-seeds them without re-replicating.
	replicaKeys map[string]bool

	start time.Time

	// beforeRun, when non-nil, is called by a worker after popping a job
	// and before checking its context — a test seam that makes queue-full
	// and cancellation scenarios deterministic.
	beforeRun func(*Job)
}

// New builds a Server, replays its journal if one is configured, and
// starts the device-pool workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		reg:         &obs.Registry{},
		cache:       NewCache(cfg.CacheCap),
		fq:          newFairQueue(cfg.QueueCap),
		tenants:     newTenantTable(cfg.Tenants),
		est:         newEstimator(),
		jobs:        map[string]*Job{},
		inflight:    map[string]*Job{},
		replicaKeys: map[string]bool{},
		start:       time.Now(),
	}
	s.log = cfg.Logger
	s.slo = obs.NewSLO(cfg.SLO)
	s.brown = newBrownout(cfg.Brownout, cfg.Now)
	s.events = obs.NewEventRing(cfg.EventBuffer)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.reg.Set("devices.total", float64(cfg.Devices))
	s.reg.Set("queue.cap", float64(cfg.QueueCap))
	s.reg.Set("draining", 0)
	// Brownout gauges exist from the first scrape, not the first overload.
	s.reg.Set("brownout.level", 0)
	s.reg.Set("brownout.active", 0)
	// Declare the lifecycle latency histograms eagerly so their series
	// exist in /metrics from the first scrape, not the first job.
	for _, h := range []string{
		"job.queue_seconds", "job.run_seconds", "job.total_seconds", "job.modeled_seconds",
	} {
		s.reg.DeclareHistogram(h, nil)
	}
	s.pool = newPool(s, cfg.Devices, cfg.Machine)
	if cfg.JournalPath != "" {
		// Recover before the workers start so re-admitted jobs keep their
		// submission order, then open the journal for appending and
		// compact away the replayed history (including any torn tail).
		s.recover()
		j, err := OpenJournal(cfg.JournalPath)
		if err != nil {
			s.journalDegraded(err)
		} else {
			s.journal = j
			if err := s.journal.Rotate(s.compactRecords()); err != nil {
				s.journalDegraded(err)
			}
		}
	}
	s.pool.start(s.baseCtx)
	return s
}

// Close stops the workers and closes the journal. Queued jobs are
// abandoned in place (the journal re-admits them on restart); running
// jobs finish their current level and stop at the next boundary only if
// their own contexts are canceled, so callers wanting a hard stop should
// cancel jobs first.
func (s *Server) Close() {
	s.baseCancel()
	s.wg.Wait()
	s.journal.Close()
}

// SLO evaluates the service-level objectives now, the same snapshot
// GET /slo serves.
func (s *Server) SLO() obs.SLOSnapshot { return s.slo.Snapshot() }

// journalAppend appends one record, degrading to non-durable operation
// on the first failure: the error is logged once, the journal.degraded
// gauge flips, and the server keeps serving.
func (s *Server) journalAppend(rec Record) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(rec); err != nil {
		s.journalDegraded(err)
		return
	}
	s.reg.Add("journal.appends", 1)
	if s.journal.Appends() >= int64(s.cfg.JournalRotateEvery) {
		if err := s.journal.Rotate(s.compactRecords()); err != nil {
			s.journalDegraded(err)
		} else {
			s.reg.Add("journal.rotations", 1)
		}
	}
}

// journalDegraded records a durability failure: counted always, logged
// loudly once. The daemon stays up — losing durability must not lose
// availability.
func (s *Server) journalDegraded(err error) {
	s.reg.Add("journal.errors", 1)
	s.reg.Set("journal.degraded", 1)
	s.journalWarn.Do(func() {
		s.log.Error("journal degraded, continuing WITHOUT durability", "error", err.Error())
	})
}

// compactRecords rewrites the live job index as a minimal record
// sequence: submit(+running) for live jobs, submit+outcome for terminal
// ones. It is the rotation image of the journal.
func (s *Server) compactRecords() []Record {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	var recs []Record
	for _, j := range jobs {
		st := j.Status()
		recs = append(recs, Record{Type: RecSubmit, ID: j.ID, Seq: seqOf(j.ID), Req: j.req})
		switch st.State {
		case StateDone:
			recs = append(recs, Record{Type: RecDone, ID: j.ID, Key: j.key, Result: st.Result})
		case StateFailed:
			recs = append(recs, Record{Type: RecFailed, ID: j.ID, Error: st.Error})
		case StateCanceled:
			recs = append(recs, Record{Type: RecCanceled, ID: j.ID, Error: st.Error})
		case StateRunning:
			recs = append(recs, Record{Type: RecRunning, ID: j.ID})
		}
	}
	// Replica-held entries rotate with the journal too: they are a
	// peer's completed work, so losing them on compaction would silently
	// shrink the ring's replication factor. Entries the LRU has since
	// evicted drop out of both the image and the tracking set.
	s.mu.Lock()
	rkeys := make([]string, 0, len(s.replicaKeys))
	for k := range s.replicaKeys {
		rkeys = append(rkeys, k)
	}
	s.mu.Unlock()
	sort.Strings(rkeys)
	for _, k := range rkeys {
		c, ok := s.cache.Peek(k)
		if !ok {
			s.mu.Lock()
			delete(s.replicaKeys, k)
			s.mu.Unlock()
			continue
		}
		res := c.Result
		recs = append(recs, Record{Type: RecReplica, ID: replicaRecordID(k), Key: k, Result: &res})
	}
	// The estimator state rides every compaction so a restart after
	// rotation still replays warm service-time estimates.
	if cells := s.est.snapshot(); len(cells) > 0 {
		recs = append(recs, Record{Type: RecEstimator, ID: "estimator", Est: cells})
	}
	return recs
}

// replicaRecordID derives a journal record ID for a replica-held cache
// key; replay only needs it to be non-empty and stable per key.
func replicaRecordID(key string) string {
	if len(key) > 12 {
		key = key[:12]
	}
	return "replica-" + key
}

// watch follows a job to its terminal state: it releases the job's
// single-flight leadership, journals the outcome, and closes the job's
// observability account (lifecycle spans, SLO sample, flight-recorder
// event, outcome log line). Recovered jobs skip journaling of states
// that replay already proved.
func (s *Server) watch(j *Job) {
	select {
	case <-j.Done():
	case <-s.baseCtx.Done():
		// Shutdown: jobs abandoned in the queue never finish; their
		// journal records already mark them live for the next process.
		return
	}
	s.mu.Lock()
	if j.key != "" && s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
	st := j.Status()
	var rec Record
	switch st.State {
	case StateDone:
		rec = Record{Type: RecDone, ID: j.ID, Key: j.key, Result: st.Result}
	case StateFailed:
		rec = Record{Type: RecFailed, ID: j.ID, Error: st.Error}
	case StateCanceled:
		rec = Record{Type: RecCanceled, ID: j.ID, Error: st.Error}
	}
	if rec.Type != "" && s.journal != nil {
		jt0 := time.Now()
		s.journalAppend(rec)
		j.addLifeSpan(lifeJournal, jt0, time.Now(), map[string]any{"record": rec.Type})
		s.event(obs.EvJournalAppend, j, -1, rec.Type)
	}
	// Freshly computed results fan out to the replication hook. Cache
	// hits, coalesced followers, and journal replays never fire it:
	// their results either already replicated when first computed or
	// are themselves replicas.
	if st.State == StateDone && st.Result != nil && j.key != "" &&
		!j.recovered && !j.cached && !j.coalesced {
		if fn := s.resultHook(); fn != nil {
			fn(j.key, st.Result)
		}
	}
	s.observeTerminal(j)
}

// Metrics returns the server's counter registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// journalEstimator appends the estimator's current cells so a restarted
// daemon replays them and deadline admission restarts warm. The last
// estimator record in the journal wins at replay.
func (s *Server) journalEstimator() {
	if s.journal == nil {
		return
	}
	cells := s.est.snapshot()
	if len(cells) == 0 {
		return
	}
	s.journalAppend(Record{Type: RecEstimator, ID: "estimator", Est: cells})
}

// SetClusterStatus installs the ring tier's status snapshot callback;
// nil uninstalls it. The snapshot surfaces on /healthz,
// /admin/status(.json), and as the gpmetisd_cluster_* metric series.
func (s *Server) SetClusterStatus(fn func() *ClusterStatus) {
	s.clusterMu.Lock()
	s.clusterFn = fn
	s.clusterMu.Unlock()
}

// clusterStatus snapshots the ring tier, nil on a standalone daemon.
func (s *Server) clusterStatus() *ClusterStatus {
	s.clusterMu.Lock()
	fn := s.clusterFn
	s.clusterMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// SetResultHook installs the cluster tier's fresh-result callback; nil
// uninstalls it. The hook runs on the job's watcher goroutine, so it
// must hand off (not perform) slow work.
func (s *Server) SetResultHook(fn func(key string, res *JobResult)) {
	s.resultMu.Lock()
	s.resultFn = fn
	s.resultMu.Unlock()
}

// resultHook returns the installed fresh-result callback, nil when none.
func (s *Server) resultHook() func(key string, res *JobResult) {
	s.resultMu.Lock()
	defer s.resultMu.Unlock()
	return s.resultFn
}

// SetPromExtra installs a callback contributing extra samples and
// labeled histograms to the Prometheus exposition; nil uninstalls it.
// The cluster tier uses it to export its per-peer × per-RPC latency
// and error series without the server importing the cluster package.
func (s *Server) SetPromExtra(fn func() ([]obs.PromSample, []obs.PromHistogram)) {
	s.promMu.Lock()
	s.promFn = fn
	s.promMu.Unlock()
}

// promExtra invokes the installed exposition callback, empty when none.
func (s *Server) promExtra() ([]obs.PromSample, []obs.PromHistogram) {
	s.promMu.Lock()
	fn := s.promFn
	s.promMu.Unlock()
	if fn == nil {
		return nil, nil
	}
	return fn()
}

// SetNodeID stamps this server with its cluster identity. From then on
// every job-scoped log line, every flight-recorder event, and the
// build_info metric carry node_id, so fleet-merged streams stay
// attributable. Standalone daemons never call it.
func (s *Server) SetNodeID(id string) { s.nodeIDv.Store(id) }

// nodeID returns the cluster identity, "" on a standalone daemon.
func (s *Server) nodeID() string {
	if v := s.nodeIDv.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// NodeID is the exported read of the cluster identity.
func (s *Server) NodeID() string { return s.nodeID() }

// KeyForRequest resolves req exactly as Submit would and returns its
// content-addressed cache key ("" for NoCache submissions). It is the
// digest the cluster tier routes on: routing and caching share one
// resolution path, so they can never disagree about a request's
// identity.
func KeyForRequest(req *SubmitRequest) (string, error) {
	j, err := resolveRequest(req)
	if err != nil {
		return "", err
	}
	return j.key, nil
}

// PeekCached returns a copy of the cached result under a content key
// without touching hit/miss accounting or recency — the read behind the
// cluster tier's GET /internal/cache/{digest}.
func (s *Server) PeekCached(key string) (*JobResult, bool) {
	c, ok := s.cache.Peek(key)
	if !ok {
		return nil, false
	}
	res := c.Result // shallow copy; Part is shared and immutable
	return &res, true
}

// StoreReplicated stores a peer's completed result under its content key
// — the write behind the cluster tier's PUT /internal/cache/{digest}
// (replication, hinted-handoff drains, anti-entropy repair). It bypasses
// hit/miss accounting, journals a replica record so the entry survives a
// restart, and reports whether the entry was newly stored: false means
// the cache already held it (or caching is disabled), which is how the
// receiver dedups redundant pushes.
func (s *Server) StoreReplicated(key string, res *JobResult) bool {
	if key == "" || res == nil || s.cfg.CacheCap < 1 {
		return false
	}
	if _, ok := s.cache.Peek(key); ok {
		return false
	}
	s.cache.Put(key, &CachedResult{Result: *res})
	s.mu.Lock()
	s.replicaKeys[key] = true
	s.mu.Unlock()
	s.reg.Add("cache.replicated", 1)
	r := *res
	s.journalAppend(Record{Type: RecReplica, ID: replicaRecordID(key), Key: key, Result: &r})
	return true
}

// MaxJobs returns the job index's retention cap (Config.MaxJobs after
// defaults), the bound the cluster tier applies to its own per-job state.
func (s *Server) MaxJobs() int { return s.cfg.MaxJobs }

// CachedKeys returns the content keys of every cached result, the scan
// behind anti-entropy summaries and the decommission push.
func (s *Server) CachedKeys() []string { return s.cache.Keys() }

// RecordEvent appends one server-scoped flight-recorder event on behalf
// of a sibling tier (the cluster router's forwards and failovers).
func (s *Server) RecordEvent(typ, detail string) {
	s.event(typ, nil, -1, detail)
}

// RecordTracedEvent is RecordEvent for events belonging to a cluster
// background round: the round's trace id rides into the flight
// recorder, linking the event to the round's spans at
// GET /internal/trace/{trace_id}.
func (s *Server) RecordTracedEvent(typ, trace, detail string) {
	s.tracedEvent(typ, trace, detail)
}

// JobByTrace finds the job owning a trace id — the lookup behind the
// cluster tier's GET /internal/trace/{trace_id} for forwarded jobs.
// The scan is linear over the bounded job index; trace fetches are
// rare (one per stitched trace render).
func (s *Server) JobByTrace(traceID string) (*Job, bool) {
	if traceID == "" {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.order) - 1; i >= 0; i-- {
		if j, ok := s.jobs[s.order[i]]; ok && j.TraceID() == traceID {
			return j, true
		}
	}
	return nil, false
}

// Submit validates req, consults the result cache and the in-flight
// index, and either completes the job instantly (hit), attaches it to an
// identical in-flight job (single-flight coalescing), or admits it to
// the weighted-fair queue. It rejects with ErrQueueFull (wrapped in an
// *overloadError carrying a dynamic Retry-After) at capacity, with
// overload errors coded tenant_quota / rate_limited /
// deadline_unmeetable when admission control refuses the tenant or the
// deadline, with ErrDraining during graceful shutdown, and with a
// *requestError for invalid submissions.
func (s *Server) Submit(req *SubmitRequest) (*Job, error) {
	if s.draining.Load() {
		s.reg.Add("jobs.rejected_draining", 1)
		return nil, ErrDraining
	}
	t0 := time.Now()
	// Brownout level 2: new work runs with the degrade ladder armed. The
	// flip happens on the wire request before resolution so the cache
	// key, the journal record, and the run all see the same options.
	autoDegraded := false
	if !req.Degrade && s.brown.Level() >= brownoutDegrade {
		req.Degrade = true
		autoDegraded = true
	}
	job, err := resolveRequest(req)
	if err != nil {
		s.reg.Add("jobs.bad_request", 1)
		return nil, err
	}
	job.submittedAt = t0
	if req.ForwardedBy != "" {
		// The ring forward that delivered this job appears in its own
		// trace: a zero-width wall span carrying the α+βn modeled cost of
		// the network hop. The entry node's trace context rides the
		// forward, so this job joins the caller's trace instead of
		// minting its own, and its spans parent under the caller's
		// cluster-forward span when the entry node stitches.
		attrs := map[string]any{
			"from": req.ForwardedBy, "net_modeled_seconds": req.ForwardNetSeconds,
		}
		if req.ForwardTraceID != "" {
			job.traceID = req.ForwardTraceID
			if req.ForwardSpanID != 0 {
				attrs["parent"] = req.ForwardSpanID
			}
		}
		job.addLifeSpan(lifeClusterForward, t0, t0, attrs)
	}
	job.tenant = s.tenants.state(req.Tenant)
	job.autoDegraded = autoDegraded
	if autoDegraded {
		s.reg.Add("jobs.auto_degraded", 1)
	}
	job.tenant.addSubmitted()
	s.reg.Add("jobs.submitted", 1)

	// Token-bucket rate limit: the cheapest check runs first, before any
	// cache or queue state is touched.
	if ok, wait := job.tenant.allow(s.cfg.Now()); !ok {
		job.tenant.addRejected()
		s.reg.Add("jobs.rejected_ratelimit", 1)
		s.event(obs.EvRejected, nil, -1, "rate limited: tenant "+job.tenant.name)
		s.log.Warn("job rejected: tenant rate limited", "tenant", job.tenant.name)
		retry := int(math.Ceil(wait.Seconds()))
		if retry < 1 {
			retry = 1
		}
		return nil, &overloadError{
			code:       CodeRateLimited,
			msg:        fmt.Sprintf("tenant %q rate limited (%g/s, burst %g)", job.tenant.name, job.tenant.cfg.RatePerSec, job.tenant.cfg.Burst),
			retryAfter: retry,
		}
	}

	deadline := time.Duration(req.DeadlineMs) * time.Millisecond
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > 0 {
		job.ctx, job.cancel = context.WithTimeout(s.baseCtx, deadline)
	} else {
		job.ctx, job.cancel = context.WithCancel(s.baseCtx)
	}

	// The cache is its own hit/miss bookkeeper; /metrics merges its
	// counts into the registry snapshot.
	if job.key != "" {
		lookT0 := time.Now()
		hit, ok := s.cache.Get(job.key)
		lookT1 := time.Now()
		job.addLifeSpan(lifeCacheLook, lookT0, lookT1, map[string]any{"hit": ok})
		if ok {
			s.register(job)
			job.addLifeSpan(lifeAdmit, t0, lookT1, admitAttrs(job, "cache-hit"))
			s.event(obs.EvAdmit, job, -1, "cache hit")
			s.event(obs.EvCacheHit, job, -1, "")
			s.jlog(job).Info("job admitted", "outcome", "cache-hit", "k", job.k)
			s.journalSubmit(job)
			job.finishCached(hit)
			job.g = nil
			s.spawnWatch(job)
			return job, nil
		}
	}

	// Single-flight: an identical cacheable request already in flight
	// makes this job a follower — it adopts the leader's result instead
	// of occupying a second device slot. Leadership is claimed before
	// admission so two racing identical submits can never both run.
	claimed := false
	if job.key != "" {
		s.mu.Lock()
		if leader, ok := s.inflight[job.key]; ok {
			s.registerLocked(job)
			job.coalesced = true
			s.mu.Unlock()
			s.reg.Add("jobs.coalesced", 1)
			job.addLifeSpan(lifeAdmit, t0, time.Now(), admitAttrs(job, "coalesced"))
			s.event(obs.EvAdmit, job, -1, "coalesced behind "+leader.ID)
			s.event(obs.EvCoalesced, job, -1, "leader "+leader.ID)
			s.jlog(job).Info("job admitted", "outcome", "coalesced", "leader", leader.ID)
			s.journalSubmit(job)
			go s.watch(job)
			go s.follow(job, leader)
			return job, nil
		}
		s.inflight[job.key] = job
		claimed = true
		s.mu.Unlock()
	}

	// The ID must exist before a worker can pop the job (its running
	// journal record carries it; the queue handoff orders the write),
	// but the job is indexed only after the queue accepted it, so a
	// rejected submission leaves no trace beyond the counter and a
	// burned sequence number.
	s.mu.Lock()
	s.assignIDLocked(job)
	s.mu.Unlock()

	unclaim := func() {
		if claimed {
			s.mu.Lock()
			if s.inflight[job.key] == job {
				delete(s.inflight, job.key)
			}
			s.mu.Unlock()
		}
	}

	// Deadline-aware admission: once the estimator has evidence for this
	// (algorithm, size-bucket) cell, a job whose deadline cannot cover
	// the queued work ahead of it plus its own service time is rejected
	// now, not failed after burning a queue slot. Cold cells admit
	// optimistically.
	est := s.est.costs(job.algo, job.vertices)
	job.estWall, job.estModeled = est.wall, est.modeled
	if deadline > 0 {
		if known, ok := s.est.lookup(job.algo, job.vertices); ok {
			depth, queuedWall := s.fq.stats()
			need := queuedWall/float64(s.cfg.Devices) + known.wall
			if need > deadline.Seconds() {
				unclaim()
				job.tenant.addRejected()
				s.reg.Add("jobs.rejected_deadline", 1)
				detail := fmt.Sprintf("deadline unmeetable: need ~%.3fs (queue depth %d), deadline %s", need, depth, deadline)
				s.event(obs.EvRejected, job, -1, detail)
				s.jlog(job).Warn("job rejected: deadline unmeetable",
					"estimated_seconds", need, "deadline", deadline.String(), "queue_depth", depth)
				job.cancel()
				return nil, &overloadError{
					code:       CodeDeadlineUnmeetable,
					msg:        detail,
					retryAfter: s.retryAfterSeconds(),
				}
			}
		}
	}

	job.queuedAt = time.Now()
	if err := s.fq.Push(job, true); err != nil {
		unclaim()
		job.tenant.addRejected()
		var qe *quotaError
		if errors.As(err, &qe) {
			s.reg.Add("jobs.rejected_quota", 1)
			s.event(obs.EvRejected, job, -1, err.Error())
			s.jlog(job).Warn("job rejected: tenant over quota",
				"tenant", job.tenant.name, "max_queued", job.tenant.cfg.MaxQueued)
			job.cancel()
			return nil, &overloadError{
				code:       CodeTenantQuota,
				msg:        err.Error(),
				retryAfter: s.retryAfterSeconds(),
				wrapped:    err,
			}
		}
		s.reg.Add("jobs.rejected", 1)
		s.event(obs.EvRejected, job, -1, "queue full")
		s.jlog(job).Warn("job rejected: queue full", "queue_cap", s.cfg.QueueCap)
		job.cancel()
		return nil, &overloadError{
			code:       CodeOverloaded,
			msg:        fmt.Sprintf("%v: capacity %d", ErrQueueFull, s.cfg.QueueCap),
			retryAfter: s.retryAfterSeconds(),
			wrapped:    ErrQueueFull,
		}
	}
	s.reg.Add("queue.depth", 1)
	s.mu.Lock()
	s.indexLocked(job)
	s.mu.Unlock()
	job.addLifeSpan(lifeAdmit, t0, time.Now(), admitAttrs(job, "queued"))
	s.event(obs.EvAdmit, job, -1, "queued")
	s.jlog(job).Info("job admitted", "outcome", "queued", "k", job.k,
		"vertices", job.vertices, "queue_depth", s.fq.Len(), "tenant", job.tenant.name)
	s.journalSubmit(job)
	s.spawnWatch(job)
	s.watchQueued(job)
	s.brownoutTick()
	return job, nil
}

// retryAfterSeconds derives the Retry-After hint from live load: the
// wall-second estimate of all queued work divided across the device
// pool, floored at 1s and capped at 10 minutes.
func (s *Server) retryAfterSeconds() int {
	_, queuedWall := s.fq.stats()
	secs := int(math.Ceil(queuedWall / float64(s.cfg.Devices)))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// overloadError is an admission-control rejection the HTTP layer maps to
// 429 with a machine-readable code and a load-derived Retry-After.
// Queue-full rejections wrap ErrQueueFull so errors.Is keeps working for
// direct API callers.
type overloadError struct {
	code       string
	msg        string
	retryAfter int
	wrapped    error
}

func (e *overloadError) Error() string { return e.msg }
func (e *overloadError) Unwrap() error { return e.wrapped }

// OverloadCode returns the wire code of an admission-control rejection
// ("overloaded", "tenant_quota", "rate_limited", "deadline_unmeetable"),
// or "" when err is not an overload rejection.
func OverloadCode(err error) string {
	var oe *overloadError
	if errors.As(err, &oe) {
		return oe.code
	}
	return ""
}

// watchQueued enforces a queued job's deadline eagerly: if the job's
// context dies while it still sits in the fair queue, the job is pulled
// out and finished immediately — the queue slot frees at expiry time,
// not at the next worker pop. Shutdown is the exception: queued jobs are
// abandoned in place so the journal re-admits them on restart.
func (s *Server) watchQueued(j *Job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case <-j.Done():
		case <-j.ctx.Done():
			if s.baseCtx.Err() != nil {
				return // shutting down; leave the job queued for replay
			}
			if !s.fq.Remove(j) {
				return // a worker already popped it and owns the outcome
			}
			s.reg.Add("queue.depth", -1)
			now := time.Now()
			wait := now.Sub(j.queuedAt).Seconds()
			s.reg.Observe("job.queue_seconds", wait)
			j.addLifeSpan(lifeQueueWait, j.queuedAt, now, map[string]any{"expired": true})
			// Record the expiry before finishing: whoever waits on the
			// job's Done must find the event already in the recorder.
			s.event(obs.EvQueueExpired, j, -1, fmt.Sprintf("after %.3fs queued", wait))
			s.jlog(j).Info("queued job expired eagerly", "wait_seconds", wait)
			s.pool.finishDead(j, j.ctx.Err())
		}
	}()
}

// brownoutTick re-evaluates the overload ladder and applies its policy:
// level transitions emit paired brownout_begin/brownout_end events, and
// any level above off runs a shed pass over the queue. Ticks run at
// every admission and every dequeue; brownMu serializes them so events
// pair up and victims are shed exactly once.
func (s *Server) brownoutTick() {
	if s.brown.disabled {
		return
	}
	s.brownMu.Lock()
	defer s.brownMu.Unlock()
	prev, level := s.brown.evaluate()
	s.reg.Set("brownout.level", float64(level))
	if level > brownoutOff {
		s.reg.Set("brownout.active", 1)
	} else {
		s.reg.Set("brownout.active", 0)
	}
	switch {
	case prev == brownoutOff && level > brownoutOff:
		s.reg.Add("brownout.engaged", 1)
		s.event(obs.EvBrownoutBegin, nil, -1, fmt.Sprintf("level %d", level))
		s.log.Warn("brownout engaged: queue-wait burn over budget", "level", level)
	case prev > brownoutOff && level == brownoutOff:
		s.event(obs.EvBrownoutEnd, nil, -1, "")
		s.log.Info("brownout ended: queue-wait burn back under budget")
	case prev != level:
		s.log.Info("brownout level changed", "from", prev, "to", level)
	}
	if level >= brownoutShed {
		s.shedOverShare()
	}
}

// shedOverShare shears queued work of tenants holding more than their
// weighted fair share of the queue (see fairQueue.shedOverShare) and
// fails the victims with a retryable shed error. In-quota tenants are
// never shed — the ladder escalates to degrade instead.
func (s *Server) shedOverShare() {
	victims := s.fq.shedOverShare()
	for _, j := range victims {
		s.reg.Add("queue.depth", -1)
		s.reg.Add("jobs.shed", 1)
		s.reg.Add("jobs.failed", 1)
		j.tenant.addShed()
		j.finish(StateFailed, nil, "shed: brownout over-share shedding, resubmit later")
		s.event(obs.EvShed, j, -1, "tenant "+j.tenant.name)
		s.jlog(j).Warn("queued job shed by brownout", "tenant", j.tenant.name)
	}
}

// admitAttrs builds the admit span's trace args.
func admitAttrs(j *Job, outcome string) map[string]any {
	return map[string]any{"outcome": outcome, "k": j.k, "vertices": j.vertices}
}

// spawnWatch and spawnFollow run their goroutines under the server
// WaitGroup so Close drains them before closing the journal.
func (s *Server) spawnWatch(j *Job) {
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.watch(j) }()
}

func (s *Server) spawnFollow(j, leader *Job) {
	s.wg.Add(1)
	go func() { defer s.wg.Done(); s.follow(j, leader) }()
}

// follow resolves a single-flight follower against its leader: adopt
// the result on success, otherwise re-follow or become the new leader
// and run for real. The follower's own context still cancels it.
func (s *Server) follow(j, leader *Job) {
	for {
		select {
		case <-j.ctx.Done():
			if errors.Is(j.ctx.Err(), context.DeadlineExceeded) {
				s.reg.Add("jobs.failed", 1)
				j.finish(StateFailed, nil, "deadline exceeded while coalesced")
			} else {
				s.reg.Add("jobs.canceled", 1)
				j.finish(StateCanceled, nil, "canceled while coalesced")
			}
			j.g = nil
			return
		case <-leader.Done():
		}
		if st := leader.Status(); st.State == StateDone && st.Result != nil {
			s.reg.Add("jobs.completed", 1)
			j.finishCoalesced(st.Result, leader.Profile())
			j.g = nil
			return
		}
		// The leader failed or was canceled; its outcome must not bind
		// the follower. Check the cache (another leader may have landed),
		// then re-follow or take over.
		if hit, ok := s.cache.Get(j.key); ok {
			j.finishCached(hit)
			j.g = nil
			return
		}
		s.mu.Lock()
		if l2, ok := s.inflight[j.key]; ok && l2 != j {
			leader = l2
			s.mu.Unlock()
			continue
		}
		s.inflight[j.key] = j
		s.mu.Unlock()
		est := s.est.costs(j.algo, j.vertices)
		j.estWall, j.estModeled = est.wall, est.modeled
		j.queuedAt = time.Now()
		// The follower was already admitted once; quota does not apply to
		// its takeover — accepted jobs cannot be lost to admission control.
		if err := s.fq.Push(j, false); err != nil {
			s.mu.Lock()
			if s.inflight[j.key] == j {
				delete(s.inflight, j.key)
			}
			s.mu.Unlock()
			s.reg.Add("jobs.failed", 1)
			j.finish(StateFailed, nil, "queue full after coalesced leader aborted")
			j.g = nil
			return
		}
		s.reg.Add("queue.depth", 1)
		s.watchQueued(j)
		return
	}
}

// journalSubmit appends a job's admission record.
func (s *Server) journalSubmit(j *Job) {
	s.journalAppend(Record{Type: RecSubmit, ID: j.ID, Seq: seqOf(j.ID), Req: j.req})
}

// seqOf extracts the numeric sequence from a job ID: the trailing run
// of digits, so prefixes carrying digits of their own ("n2-j000042")
// do not pollute the sequence.
func seqOf(id string) int {
	n, mul := 0, 1
	for i := len(id) - 1; i >= 0; i-- {
		c := id[i]
		if c < '0' || c > '9' {
			break
		}
		n += int(c-'0') * mul
		mul *= 10
	}
	return n
}

// register assigns the job its ID and indexes it, forgetting the oldest
// terminal jobs beyond the retention cap.
func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.registerLocked(j)
}

func (s *Server) registerLocked(j *Job) {
	s.assignIDLocked(j)
	s.indexLocked(j)
}

// indexLocked inserts an already-named job into the index and applies
// the retention cap.
func (s *Server) indexLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > s.cfg.MaxJobs {
		old := s.jobs[s.order[0]]
		if old != nil {
			st := old.Status().State
			if st == StateQueued || st == StateRunning {
				break // never forget a live job
			}
			delete(s.jobs, s.order[0])
		}
		s.order = s.order[1:]
	}
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Handler returns the HTTP API:
//
//	POST   /jobs            submit (202 queued, 200 cache hit, 429 full)
//	GET    /jobs            list job statuses, oldest first
//	GET    /jobs/{id}       one job's status (result when done)
//	DELETE /jobs/{id}       cancel
//	GET    /jobs/{id}/trace Chrome trace_event JSON of the job's run
//	GET    /jobs/{id}/profile kernel-level roofline profile (profiled jobs)
//	GET    /metrics         Prometheus text exposition
//	GET    /metrics.json    counter registry snapshot as flat JSON
//	GET    /healthz         liveness + occupancy + SLO posture + build info
//	GET    /slo             full SLO evaluation (burn rates, windows)
//	GET    /admin/status    live ops view (self-refreshing HTML)
//	GET    /admin/status.json  the ops view's data, for gpmetis -top
//	GET    /admin/events    flight recorder: recent lifecycle events
//	GET    /admin/devices   device-pool quarantine states
//	POST   /admin/devices/{slot}/reinstate  force a slot back into service
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /slo", s.handleSLO)
	mux.HandleFunc("GET /admin/status", s.handleStatusHTML)
	mux.HandleFunc("GET /admin/status.json", s.handleStatusJSON)
	mux.HandleFunc("GET /admin/events", s.handleEvents)
	mux.HandleFunc("GET /admin/devices", s.handleDevices)
	mux.HandleFunc("POST /admin/devices/{slot}/reinstate", s.handleReinstate)
	return mux
}

func (s *Server) handleDevices(w http.ResponseWriter, _ *http.Request) {
	out := make([]DeviceStatus, len(s.pool.health))
	for i, h := range s.pool.health {
		out[i] = h.status(i)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReinstate(w http.ResponseWriter, r *http.Request) {
	slot, err := strconv.Atoi(r.PathValue("slot"))
	if err != nil || slot < 0 || slot >= len(s.pool.health) {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such device slot")
		return
	}
	if s.pool.health[slot].reinstate() {
		s.reg.Add("devices.quarantined", -1)
		s.reg.Add("quarantine.reinstated", 1)
		s.event(obs.EvReinstate, nil, slot, "forced via admin API")
		s.log.Info("device slot force-reinstated via admin API", "slot", slot)
	}
	writeJSON(w, http.StatusOK, s.pool.health[slot].status(slot))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, 256<<20)
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, fmt.Sprintf("bad JSON: %v", err))
		return
	}
	// A forwarded submission carries its trace context both in the body
	// and in the X-Gpmetis-Trace header; the header wins a tie-break
	// only when the body fields are absent (an older forwarder).
	if req.ForwardedBy != "" && req.ForwardTraceID == "" {
		if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeader)); ok {
			req.ForwardTraceID = tc.TraceID
			req.ForwardSpanID = tc.SpanID
			req.ForwardWallUnixNano = tc.WallUnixNano
		}
	}
	job, err := s.Submit(&req)
	var oe *overloadError
	switch {
	case err == nil:
		st := job.Status()
		code := http.StatusAccepted
		if st.State == StateDone {
			code = http.StatusOK // cache hit: born done
		}
		writeJSON(w, code, st)
	case errors.As(err, &oe):
		// Every overload-class rejection (queue full, tenant quota, rate
		// limit, unmeetable deadline) carries a Retry-After derived from
		// live queue depth × estimated service time, not a constant.
		w.Header().Set("Retry-After", strconv.Itoa(oe.retryAfter))
		writeError(w, http.StatusTooManyRequests, oe.code, oe.msg)
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
	default:
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		st.Result = nil // listing stays light; fetch one job for the vector
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.Job(r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, j.Status())
		return
	}
	writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusOK, j.Status())
}

// handleTrace serves the job's merged timeline: wall-clock service
// lifecycle spans plus, once the run started, the modeled-clock
// partition trace parented under the run span. A queued job already has
// a trace (its admission spans); the document grows as the job moves.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := writeJobTrace(w, j); err != nil {
		// Headers are gone; the truncated body is the best signal left.
		return
	}
}

// cacheExtra derives the cache-layer metric values merged into both
// metrics expositions.
func (s *Server) cacheExtra() map[string]float64 {
	hits, misses, evicted := s.cache.Stats()
	extra := map[string]float64{
		"cache.hits":     float64(hits),
		"cache.misses":   float64(misses),
		"cache.evicted":  float64(evicted),
		"cache.entries":  float64(s.cache.Len()),
		"uptime.seconds": time.Since(s.start).Seconds(),
	}
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	extra["cache.hit_rate"] = rate
	return extra
}

// handleMetrics serves the Prometheus text exposition: every registry
// counter and histogram under the gpmetisd_ prefix, plus build info,
// cache and uptime gauges, and the per-slot utilization/quarantine
// series. The JSON form lives at /metrics.json.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var extra []obs.PromSample
	buildLabels := []obs.Label{
		{Key: "version", Value: Version},
		{Key: "go_version", Value: runtime.Version()},
	}
	if id := s.nodeID(); id != "" {
		// The node label is what lets fleet dashboards join build_info
		// across a ring scrape.
		buildLabels = append(buildLabels, obs.Label{Key: "node", Value: id})
	}
	extra = append(extra, obs.PromSample{
		Name:   "build_info",
		Labels: buildLabels,
		Value:  1,
		Help:   "Build metadata; the value is always 1.",
	})
	ce := s.cacheExtra()
	for _, name := range []string{
		"cache.hits", "cache.misses", "cache.evicted", "cache.entries",
		"cache.hit_rate", "uptime.seconds",
	} {
		extra = append(extra, obs.PromSample{Name: name, Value: ce[name]})
	}
	slo := s.slo.Snapshot()
	extra = append(extra,
		obs.PromSample{Name: "slo.latency_threshold_seconds", Value: slo.LatencyThresholdSeconds,
			Help: "Latency objective threshold in seconds."},
		obs.PromSample{Name: "slo.latency_target", Value: slo.LatencyTarget},
		obs.PromSample{Name: "slo.availability_target", Value: slo.AvailabilityTarget},
		obs.PromSample{Name: "slo.latency_burn_fast", Value: slo.Fast.LatencyBurn,
			Help: "Latency burn rate over the fast window (>1 consumes budget)."},
		obs.PromSample{Name: "slo.latency_burn_slow", Value: slo.Slow.LatencyBurn},
		obs.PromSample{Name: "slo.availability_burn_fast", Value: slo.Fast.AvailabilityBurn,
			Help: "Availability burn rate over the fast window (>1 consumes budget)."},
		obs.PromSample{Name: "slo.availability_burn_slow", Value: slo.Slow.AvailabilityBurn},
		obs.PromSample{Name: "slo.window_jobs_fast", Value: float64(slo.Fast.Jobs)},
		obs.PromSample{Name: "slo.window_jobs_slow", Value: float64(slo.Slow.Jobs)},
		obs.PromSample{Name: "slo.status", Value: obs.StatusValue(slo.Status),
			Help: "Multi-window burn verdict: 0 ok, 1 warn, 2 breach."},
	)
	busy, jobs := s.pool.slotStats()
	for slot := range busy {
		extra = append(extra, obs.PromSample{
			Name:   "slot_busy_seconds",
			Labels: []obs.Label{{Key: "slot", Value: strconv.Itoa(slot)}},
			Value:  busy[slot],
		})
	}
	for slot := range jobs {
		extra = append(extra, obs.PromSample{
			Name:   "slot_jobs",
			Labels: []obs.Label{{Key: "slot", Value: strconv.Itoa(slot)}},
			Value:  float64(jobs[slot]),
		})
	}
	for slot, h := range s.pool.health {
		var q float64
		if h.quarantined() {
			q = 1
		}
		extra = append(extra, obs.PromSample{
			Name:   "slot_quarantined",
			Labels: []obs.Label{{Key: "slot", Value: strconv.Itoa(slot)}},
			Value:  q,
		})
	}
	extra = append(extra, s.tenantSamples()...)
	extra = append(extra, s.clusterSamples()...)
	hookSamples, hookHists := s.promExtra()
	extra = append(extra, hookSamples...)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheusFull(w, s.reg, "gpmetisd_", extra, hookHists)
}

// clusterSamples renders the gpmetisd_cluster_* series from the ring
// tier's snapshot; empty on a standalone daemon.
func (s *Server) clusterSamples() []obs.PromSample {
	cs := s.clusterStatus()
	if cs == nil {
		return nil
	}
	out := []obs.PromSample{
		{Name: "cluster.node_id", Value: float64(cs.NodeID),
			Help: "This node's ring identity."},
		{Name: "cluster.ring_size", Value: float64(len(cs.Peers)),
			Help: "Ring member count from peers.json."},
		{Name: "cluster.forwards", Value: float64(cs.Forwards),
			Help: "Submissions this node forwarded to their ring owner."},
		{Name: "cluster.peek_hits", Value: float64(cs.PeekHits),
			Help: "Cross-node cache peeks answered by a remote cache."},
		{Name: "cluster.peek_misses", Value: float64(cs.PeekMisses),
			Help: "Cross-node cache peeks the remote cache could not answer."},
		{Name: "cluster.failovers_total", Value: float64(cs.Failovers),
			Help: "Submissions routed to a ring successor because the owner was down."},
		{Name: "cluster.net_modeled_seconds", Value: cs.NetModeledSeconds,
			Help: "Modeled α+βn network seconds charged to cluster traffic."},
		{Name: "cluster.net_messages", Value: float64(cs.NetMessages),
			Help: "Inter-node messages charged against the modeled network."},
		{Name: "cluster.replicas", Value: float64(cs.Replicas),
			Help: "Configured replication factor (1 = replication off)."},
		{Name: "cluster.replica_pushes", Value: float64(cs.ReplicaPushes),
			Help: "Completed results this node pushed to ring replicas."},
		{Name: "cluster.replica_stores", Value: float64(cs.ReplicaStores),
			Help: "Replica entries this node stored on behalf of peers."},
		{Name: "cluster.replica_hits", Value: float64(cs.ReplicaHits),
			Help: "Failover reads answered from a replica instead of recomputed."},
		{Name: "cluster.handoff_hinted", Value: float64(cs.HandoffHinted),
			Help: "Handoff hints recorded against quarantined replicas."},
		{Name: "cluster.handoff_drained", Value: float64(cs.HandoffDrained),
			Help: "Handoff hints delivered after the peer reinstated."},
		{Name: "cluster.handoff_hints_outstanding", Value: float64(cs.HintsOutstanding),
			Help: "Handoff hints currently awaiting delivery."},
		{Name: "cluster.repair_pushed", Value: float64(cs.RepairPushed),
			Help: "Cache entries pushed to peers by anti-entropy repair."},
		{Name: "cluster.repair_pulled", Value: float64(cs.RepairPulled),
			Help: "Cache entries pulled from peers by anti-entropy repair and read-repair."},
	}
	first := true
	for _, p := range cs.Peers {
		if p.Self {
			continue // a node probing itself is not a signal
		}
		up := 0.0
		if p.State == "up" {
			up = 1
		}
		smp := obs.PromSample{
			Name:   "cluster.node_up",
			Labels: []obs.Label{{Key: "node", Value: strconv.Itoa(p.ID)}},
			Value:  up,
		}
		if first {
			smp.Help = "Per-peer health as seen by this node (1 up, 0 down)."
			first = false
		}
		out = append(out, smp)
	}
	return out
}

// tenantSamples renders the per-tenant admission series, grouped by
// metric name so each family shares one HELP/TYPE header.
func (s *Server) tenantSamples() []obs.PromSample {
	tenants := s.tenants.snapshot(s.fq.queuedOf)
	var out []obs.PromSample
	families := []struct {
		name  string
		help  string
		value func(TenantStatus) float64
	}{
		{"tenant.weight", "Configured fair-share weight.", func(t TenantStatus) float64 { return t.Weight }},
		{"tenant.queued", "Jobs currently held in the fair queue.", func(t TenantStatus) float64 { return float64(t.Queued) }},
		{"tenant.submitted", "Jobs ever submitted.", func(t TenantStatus) float64 { return float64(t.Submitted) }},
		{"tenant.completed", "Jobs that reached done.", func(t TenantStatus) float64 { return float64(t.Completed) }},
		{"tenant.shed", "Queued jobs shed by the brownout ladder.", func(t TenantStatus) float64 { return float64(t.Shed) }},
		{"tenant.rejected", "Submissions refused by admission control.", func(t TenantStatus) float64 { return float64(t.Rejected) }},
		{"tenant.served_modeled_seconds", "Modeled GPU seconds served — the weighted-fairness currency.", func(t TenantStatus) float64 { return t.ServedModeledSeconds }},
	}
	for _, f := range families {
		for i, t := range tenants {
			smp := obs.PromSample{
				Name:   f.name,
				Labels: []obs.Label{{Key: "tenant", Value: t.Name}},
				Value:  f.value(t),
			}
			if i == 0 {
				smp.Help = f.help
			}
			out = append(out, smp)
		}
	}
	return out
}

// handleMetricsJSON serves the flat JSON registry snapshot that /metrics
// carried before the Prometheus exposition took that path over.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteRegistryJSON(w, s.reg, s.cacheExtra())
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	p := j.Profile()
	if p == nil {
		writeError(w, http.StatusNotFound, CodeNotFound,
			`no kernel profile for this job (submit with "profile": true and wait for completion)`)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	h := HealthResponse{
		Status:         status,
		Devices:        s.cfg.Devices,
		QueueDepth:     s.fq.Len(),
		QueueCap:       s.cfg.QueueCap,
		Jobs:           n,
		Version:        Version,
		GoVersion:      runtime.Version(),
		UptimeSeconds:  time.Since(s.start).Seconds(),
		ModeledSeconds: s.reg.Get("modeled.seconds"),
		SLOStatus:      s.slo.Snapshot().Status,
		EventsTotal:    s.events.Total(),
		BrownoutLevel:  s.brown.Level(),
	}
	if lt := s.events.LastTime(); !lt.IsZero() {
		h.LastEvent = lt.UTC().Format(time.RFC3339Nano)
	}
	h.Cluster = s.clusterStatus()
	writeJSON(w, http.StatusOK, h)
}

// handleSLO serves the full SLO evaluation: objectives, both burn
// windows, and the multi-window verdict.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.slo.Snapshot())
}

// handleEvents serves the flight recorder's retained tail, oldest first.
func (s *Server) handleEvents(w http.ResponseWriter, _ *http.Request) {
	evs := s.events.Snapshot()
	if evs == nil {
		evs = []obs.Event{}
	}
	total := s.events.Total()
	writeJSON(w, http.StatusOK, EventsResponse{
		Total:   total,
		Dropped: total - int64(len(evs)),
		Events:  evs,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, apiCode, msg string) {
	writeJSON(w, code, ErrorResponse{Error: msg, Code: apiCode})
}
