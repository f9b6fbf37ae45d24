package server

import (
	"context"
	"strings"
	"sync"
	"time"

	"gpmetis"
	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gio"
)

// Job is one accepted partition request moving through the queue and the
// device pool. All mutable state is guarded by mu; the scheduler and the
// HTTP handlers only touch it through the methods below.
type Job struct {
	ID string

	// Immutable after resolve, except g: the goroutine that last uses
	// the graph sets it to nil once the job is terminal, so the MaxJobs
	// terminal jobs the index retains do not pin their graphs. That is
	// the worker that ran or retired the job, Submit after a cache hit,
	// or follow once a coalesced follower (which may take over and run)
	// is terminal. vertices outlives g for the estimator and admit span.
	g        *graph.Graph
	vertices int
	k        int
	algo     gpmetis.Algorithm
	opts     gpmetis.Options // resolved: defaults applied, no Tracer/Machine yet
	key      string          // content address; "" when NoCache
	noCache  bool
	req      *SubmitRequest // original wire request, retained for the journal

	// resume, when non-nil, is a checkpoint loaded during crash recovery;
	// the scheduler feeds it to the run so the job continues from the
	// boundary the previous process reached.
	resume *gpmetis.Checkpoint
	// recovered marks jobs reconstructed from the journal at startup;
	// their terminal records are already journaled, so the finish watcher
	// must not append duplicates.
	recovered bool

	// tenant is the admission state the job was accepted under; estWall
	// and estModeled are the cost estimates captured at push time (wall
	// seconds for Retry-After and deadline math, modeled seconds as the
	// fair queue's service currency). autoDegraded marks Degrade forced
	// on by the brownout ladder rather than requested by the client.
	tenant       *tenantState
	estWall      float64
	estModeled   float64
	autoDegraded bool

	ctx    context.Context
	cancel context.CancelFunc

	mu          sync.Mutex
	state       string
	cached      bool
	coalesced   bool
	resumed     bool
	device      int
	queuedAt    time.Time
	waitSeconds float64
	errMsg      string
	tracer      *gpmetis.Tracer
	profile     *gpmetis.ProfileReport
	result      *JobResult

	// traceID correlates logs, lifecycle events, and the merged trace;
	// submittedAt anchors the wall clock of the job's lifecycle spans,
	// runStartAt the modeled sub-trace's position within them.
	traceID     string
	submittedAt time.Time
	runStartAt  time.Time
	lifeSpans   []LifeSpan

	done chan struct{} // closed on any terminal state
}

// resolveRequest validates a SubmitRequest and builds the runnable job
// spec: parsed graph, resolved options with every default applied (the
// canonicalization invariant behind the cache key), and the per-job
// fault injector seed.
func resolveRequest(req *SubmitRequest) (*Job, error) {
	if req.Graph == "" {
		return nil, badRequest("missing graph text")
	}
	var (
		g   *graph.Graph
		err error
	)
	switch req.Format {
	case "", "metis":
		g, err = gio.ReadString(req.Graph)
	case "gr":
		g, err = gio.ReadGR(strings.NewReader(req.Graph))
	default:
		return nil, badRequest("unknown graph format %q (want metis or gr)", req.Format)
	}
	if err != nil {
		return nil, badRequest("unparsable graph: %v", err)
	}
	if req.K < 1 {
		return nil, badRequest("k must be >= 1, got %d", req.K)
	}
	if req.K > g.NumVertices() {
		return nil, badRequest("k=%d exceeds vertex count %d", req.K, g.NumVertices())
	}

	algo, err := parseAlgorithm(req.Algo)
	if err != nil {
		return nil, err
	}
	o := gpmetis.Options{
		Algorithm: algo,
		Seed:      req.Seed,
		UBFactor:  req.UB,
		Threads:   req.Threads,
		Devices:   req.Devices,
		Degrade:   req.Degrade,
		Verify:    req.Verify,
		Profile:   req.Profile,
	}
	// Apply the library defaults here, not in Partition, so the
	// canonical option string never contains an unresolved zero.
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.UBFactor == 0 {
		o.UBFactor = 1.03
	} else if o.UBFactor < 1 {
		return nil, badRequest("ub %g must be >= 1.0", o.UBFactor)
	}
	switch req.Merge {
	case "", "hash":
		o.Merge = gpmetis.HashMerge
	case "sort":
		o.Merge = gpmetis.SortMerge
	default:
		return nil, badRequest("unknown merge strategy %q (want hash or sort)", req.Merge)
	}

	faultSeed := req.FaultSeed
	if faultSeed == 0 {
		faultSeed = o.Seed
	}
	if req.Faults != "" {
		inj, err := gpmetis.ParseFaultScenario(faultSeed, req.Faults)
		if err != nil {
			return nil, badRequest("bad fault scenario: %v", err)
		}
		o.Faults = inj
	}

	j := &Job{
		g:        g,
		vertices: g.NumVertices(),
		k:        req.K,
		algo:     algo,
		opts:     o,
		noCache:  req.NoCache,
		req:      req,
		state:    StateQueued,
		device:   -1,
		done:     make(chan struct{}),
	}
	if !req.NoCache {
		j.key = CacheKey(GraphDigest(g), canonicalOptions(algo, req.K, o, req.Faults, faultSeed))
	}
	return j, nil
}

// parseAlgorithm maps the wire/CLI algorithm names onto the library enum.
func parseAlgorithm(name string) (gpmetis.Algorithm, error) {
	switch name {
	case "", "gp":
		return gpmetis.GPMetis, nil
	case "metis":
		return gpmetis.Metis, nil
	case "mt":
		return gpmetis.MtMetis, nil
	case "par":
		return gpmetis.ParMetis, nil
	case "ptscotch":
		return gpmetis.PTScotch, nil
	case "gmetis":
		return gpmetis.Gmetis, nil
	case "jostle":
		return gpmetis.Jostle, nil
	case "spectral":
		return gpmetis.Spectral, nil
	default:
		return 0, badRequest("unknown algorithm %q (want gp, metis, mt, par, ptscotch, gmetis, jostle, or spectral)", name)
	}
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:           j.ID,
		TraceID:      j.traceID,
		State:        j.state,
		Cached:       j.cached,
		Coalesced:    j.coalesced,
		Resumed:      j.resumed,
		Device:       j.device,
		WaitSeconds:  j.waitSeconds,
		AutoDegraded: j.autoDegraded,
		Error:        j.errMsg,
	}
	if j.tenant != nil {
		st.Tenant = j.tenant.name
	}
	if j.state == StateDone {
		st.Result = j.result
	}
	return st
}

// TraceID returns the job's trace id — empty until the job was
// registered (or adopted a forwarded trace).
func (j *Job) TraceID() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.traceID
}

// LifeSpans exposes the job's lifecycle spans and clock anchors to the
// cluster tier, which serializes them at GET /internal/trace/{trace_id}
// so an entry node can stitch this node's view of a forwarded job into
// one distributed trace.
func (j *Job) LifeSpans() (spans []LifeSpan, submitted, runStart time.Time) {
	return j.lifeSnapshot()
}

// Tracer returns the job's tracer (the original run's tracer for cache
// hits, nil while queued).
func (j *Job) Tracer() *gpmetis.Tracer {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tracer
}

// Profile returns the job's kernel profile: non-nil only once a job
// submitted with "profile": true has completed (the original run's
// report for cache hits).
func (j *Job) Profile() *gpmetis.ProfileReport {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.profile
}

// setProfile installs the completed run's kernel profile.
func (j *Job) setProfile(p *gpmetis.ProfileReport) {
	j.mu.Lock()
	j.profile = p
	j.mu.Unlock()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cooperative cancellation: a queued job is discarded
// when a worker pops it; a running job stops at its next level boundary.
// Terminal jobs are unaffected.
func (j *Job) Cancel() { j.cancel() }

// markRunning transitions queued -> running on the given device slot.
func (j *Job) markRunning(device int, wait float64) {
	j.mu.Lock()
	j.state = StateRunning
	j.device = device
	j.waitSeconds = wait
	j.mu.Unlock()
}

// setTracer installs the per-run tracer before the run starts so the
// trace endpoint can stream a running job's spans.
func (j *Job) setTracer(t *gpmetis.Tracer) {
	j.mu.Lock()
	j.tracer = t
	j.mu.Unlock()
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state string, res *JobResult, errMsg string) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.mu.Unlock()
	j.cancel() // release the context's timer
	close(j.done)
}

// finishCached completes a job straight from the cache: born done, zero
// modeled cost charged, the original run's tracer attached.
func (j *Job) finishCached(c *CachedResult) {
	j.mu.Lock()
	j.cached = true
	j.tracer = c.Tracer
	j.profile = c.Profile
	j.mu.Unlock()
	res := c.Result // shallow copy; Part is shared and immutable
	j.finish(StateDone, &res, "")
}

// finishCoalesced completes a single-flight follower with its leader's
// result: identical answer, no device slot consumed. The leader's kernel
// profile comes along (profiled and unprofiled requests never coalesce —
// the cache key separates them — so profile presence always matches).
func (j *Job) finishCoalesced(res *JobResult, p *gpmetis.ProfileReport) {
	j.mu.Lock()
	j.profile = p
	j.mu.Unlock()
	cp := *res // shallow copy; Part is shared and immutable
	j.finish(StateDone, &cp, "")
}

// terminalJob reconstructs an already-finished job from its journal
// records at startup: born terminal, queryable over the API, never
// scheduled.
func terminalJob(id, state string, res *JobResult, errMsg string) *Job {
	j := &Job{
		ID:        id,
		state:     state,
		result:    res,
		errMsg:    errMsg,
		device:    -1,
		recovered: true,
		done:      make(chan struct{}),
		ctx:       context.Background(),
		cancel:    func() {},
	}
	close(j.done)
	return j
}
