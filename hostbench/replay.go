package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"gpmetis"
	"gpmetis/internal/core"
	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
	"gpmetis/internal/server"
)

// coreRun is one direct gpmetis.Partition call split at its Cancel polls,
// plus the exact counts of a second, profiled call on the same input.
type coreRun struct {
	seg                 segments
	host                float64 // seconds inside the timed call
	allocMB, allocs     float64
	modeled             float64
	gpuS, cpuS, pcieS   float64 // Timeline.TotalAt per location
	cpuLevels, launches float64
	result              *gpmetis.Result
}

// layerTimes is one replayed submission's per-layer self times, seconds.
type layerTimes struct {
	decode, parse, digest, submit, encode float64
	parseAllocs, textMB                   float64
	key, peek, hop, replLag               float64 // ring only
	core                                  *coreRun
	e2e                                   float64 // the same submission alone over HTTP
	covered                               float64 // sum of the self times on its blocking path
}

// timeIt runs f and returns its wall seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// partitionTraced runs the request's partition directly, timing the
// pipeline segments from its Cancel polls, then repeats it with the
// kernel profiler and a tracer for the exact counts. The two calls must
// agree bit for bit.
func partitionTraced(g *graph.Graph, in *input) (*coreRun, error) {
	var polls []time.Time
	o := gpmetis.Options{Seed: 1, UBFactor: in.UB, Cancel: func() error {
		polls = append(polls, time.Now())
		return nil
	}}
	var m0, m1 memStats
	m0.read()
	start := time.Now()
	res, err := gpmetis.Partition(g, in.K, o)
	end := time.Now()
	m1.read()
	if err != nil {
		return nil, err
	}
	seg, err := splitPolls(start, polls, end)
	if err != nil {
		return nil, err
	}
	c := &coreRun{
		seg: seg, host: end.Sub(start).Seconds(), result: res,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
		modeled: res.ModeledSeconds,
		gpuS:    res.Timeline.TotalAt(perfmodel.LocGPU),
		cpuS:    res.Timeline.TotalAt(perfmodel.LocCPU),
		pcieS:   res.Timeline.TotalAt(perfmodel.LocPCIe),
	}
	tr := gpmetis.NewTracer()
	prof, err := gpmetis.Partition(g, in.K, gpmetis.Options{Seed: 1, UBFactor: in.UB, Profile: true, Tracer: tr})
	if err != nil {
		return nil, err
	}
	if err := sameRun(res, prof); err != nil {
		return nil, fmt.Errorf("profiled rerun: %w", err)
	}
	if lv := int(tr.Metrics().Get("coarsen.gpu_levels")); lv != seg.GPULevels {
		return nil, fmt.Errorf("Cancel polls imply %d GPU levels, the tracer counted %d", seg.GPULevels, lv)
	}
	c.cpuLevels = tr.Metrics().Get("coarsen.cpu_levels")
	for _, k := range prof.Profile.Kernels {
		c.launches += float64(k.Launches)
	}
	return c, nil
}

// sameRun requires two partition runs of one input to agree exactly.
func sameRun(a, b *gpmetis.Result) error {
	if math.Float64bits(a.ModeledSeconds) != math.Float64bits(b.ModeledSeconds) || a.EdgeCut != b.EdgeCut {
		return fmt.Errorf("modeled %v vs %v, cut %d vs %d", a.ModeledSeconds, b.ModeledSeconds, a.EdgeCut, b.EdgeCut)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			return fmt.Errorf("partition vectors differ at vertex %d", i)
		}
	}
	return nil
}

// gpuThreshold is core's default CPU-handoff size. A shape of at least
// twice it must run two or more GPU levels, a shape below it none.
var gpuThreshold = core.DefaultOptions().GPUThreshold

// frontLayers times the layers every submission crosses at the node that
// parses it: request JSON decode, graph parse (with its allocations) and
// digest. It returns the decoded request and the parsed graph.
func frontLayers(in *input, lt *layerTimes) (*server.SubmitRequest, *graph.Graph, error) {
	var req *server.SubmitRequest
	var err error
	lt.decode = timeIt(func() { req, err = in.request() })
	if err != nil {
		return nil, nil, err
	}
	var g *graph.Graph
	var m0, m1 memStats
	m0.read()
	lt.parse = timeIt(func() { g, err = gio.Read(strings.NewReader(req.Graph)) })
	m1.read()
	if err != nil {
		return nil, nil, err
	}
	lt.parseAllocs = float64(m1.Mallocs - m0.Mallocs)
	lt.textMB = in.TextMB
	lt.digest = timeIt(func() { server.GraphDigest(g) })
	return req, g, nil
}

// submitLayer times Server.Submit for a fresh copy of the request. A job
// that was admitted rather than answered at once is canceled and awaited,
// so it does not compete with the layers timed after it.
func submitLayer(s *server.Server, in *input) (float64, error) {
	req, err := in.request()
	if err != nil {
		return 0, err
	}
	var job *server.Job
	d := timeIt(func() { job, err = s.Submit(req) })
	if err != nil {
		return 0, err
	}
	job.Cancel()
	<-job.Done()
	return d, nil
}

// encodeLayer times encoding the done JobStatus the client received.
func encodeLayer(st *server.JobStatus) float64 {
	return timeIt(func() { json.Marshal(st) })
}

// replayer holds the targets a traced replay sends its submissions to.
type replayer struct {
	e     *env
	hc    *http.Client
	layer *server.Server // the Submit layer for submissions that miss
	fresh *target        // an empty target: replayed misses miss again
	count int            // submissions to replay
}

// bootFresh starts the replay's own target, empty but for the cache
// entries the replayed hits need: a single node for misses (hits replay
// on the timed target, whose entries never churn), or a ring with the
// timed ring's membership, warmed with the replayed reads, so evictions
// during the timed phase cannot turn a replayed read into a recompute.
func (rp *replayer) bootFresh() error {
	var err error
	if rp.e.t.ring == nil {
		rp.fresh, err = bootSingle(2)
		return err
	}
	if rp.fresh, err = bootRing(len(rp.e.t.members), ringCacheCap); err != nil {
		return err
	}
	var reads []*input
	seen := map[*input]bool{}
	for i := 0; i < rp.count; i++ {
		if in := rp.e.at(i); !rp.e.miss(i) && !seen[in] {
			seen[in] = true
			reads = append(reads, rp.fresh.placed(in))
		}
	}
	if _, err := warmup(reads); err != nil {
		return err
	}
	return awaitReplicas(rp.hc, reads, 30*time.Second)
}

// replay runs submission i through every layer it crosses, then alone
// end to end, and returns the per-layer times.
func (rp *replayer) replay(i int) (*layerTimes, error) {
	in := rp.e.at(i)
	lt := &layerTimes{}
	req, g, err := frontLayers(in, lt)
	if err != nil {
		return nil, err
	}
	miss := rp.e.miss(i)
	if miss {
		// The owner's Submit admits a miss; a fresh server keeps the
		// replayed job a miss.
		if lt.submit, err = submitLayer(rp.layer, in); err != nil {
			return nil, err
		}
		if lt.core, err = partitionTraced(g, in); err != nil {
			return nil, err
		}
		if lv, n := lt.core.seg.GPULevels, g.NumVertices(); (n >= 2*gpuThreshold && lv < 2) || (n < gpuThreshold && lv != 0) {
			return nil, fmt.Errorf("%s with %d vertices ran %d GPU levels", in.Shape.Family, n, lv)
		}
	} else if in.Owner == "" {
		// A single node answers a hit from its own cache inside Submit.
		if lt.submit, err = submitLayer(rp.e.t.members[0].srv, in); err != nil {
			return nil, err
		}
	}
	core := 0.0
	if lt.core != nil {
		core = lt.core.host
	}
	selfSubmit := math.Max(lt.submit-lt.parse-lt.digest, 0)

	if in.Owner == "" {
		// Single node: a miss goes to an empty node so it runs again.
		t := rp.e.t
		if miss {
			t = rp.fresh
		}
		r, err := submit(rp.hc, t.members[0].base, in.Body, false)
		if err != nil {
			return nil, err
		}
		if err := rp.checkReply(in, g, r, lt); err != nil {
			return nil, err
		}
		lt.encode = encodeLayer(&r.status)
		lt.covered = lt.decode + lt.parse + lt.digest + selfSubmit + core + lt.encode
		return lt, nil
	}

	// Ring: the entry parses and digests (KeyForRequest) and peeks the
	// owner. A read is answered by the peek; a write's peek misses, and
	// the entry forwards it to the owner, which decodes, parses, digests,
	// admits and runs it, then replicates the result to the successor.
	w := rp.fresh.placed(in)
	lt.key = timeIt(func() { server.KeyForRequest(req) })
	lt.peek = timeIt(func() { _, err = call(rp.hc, http.MethodGet, w.Owner+"/internal/cache/"+w.Key, nil, nil) })
	if err != nil {
		return nil, err
	}
	r, err := submit(rp.hc, w.Entry, w.Body, false)
	if err != nil {
		return nil, err
	}
	done := time.Now()
	if err := rp.checkReply(in, g, r, lt); err != nil {
		return nil, err
	}
	lt.encode = encodeLayer(&r.status)
	if miss {
		if err := awaitReplicas(rp.hc, []*input{w}, 10*time.Second); err != nil {
			return nil, err
		}
		lt.replLag = time.Since(done).Seconds()
		lt.covered = 2*lt.decode + lt.key + lt.peek + lt.parse + lt.digest + selfSubmit + core + lt.encode
		return lt, nil
	}
	// The hop is a read's latency over that of the same request sent
	// straight to the owner, which answers from its own cache.
	direct, err := submit(rp.hc, w.Owner, w.Body, false)
	if err != nil {
		return nil, err
	}
	lt.hop = lt.e2e - direct.latency.Seconds()
	lt.covered = lt.decode + lt.key + lt.peek + lt.encode
	return lt, nil
}

// checkReply validates a replayed answer like a timed one and, for a
// miss, against the direct partition the replay ran.
func (rp *replayer) checkReply(in *input, g *graph.Graph, r *reply, lt *layerTimes) error {
	lt.e2e = r.latency.Seconds()
	res := r.status.Result
	if err := checkResult(g, in, res); err != nil {
		return err
	}
	if lt.core != nil {
		return matchDirect(res, lt.core.result)
	}
	return sameResult(res, rp.e.ref[in])
}

// loopTrace aggregates what the traced closed loop saw per reply.
type loopTrace struct {
	mu                     sync.Mutex
	replies, cached, polls int
	waits                  []float64
}

func (lt *loopTrace) wrap(e *env, next func(int, *input, *reply) error) func(int, *input, *reply) error {
	return func(i int, in *input, r *reply) error {
		if err := next(i, in, r); err != nil {
			return err
		}
		lt.mu.Lock()
		defer lt.mu.Unlock()
		lt.replies++
		lt.polls += r.polls
		if r.status.Cached {
			lt.cached++
		} else if e.miss(i) {
			lt.waits = append(lt.waits, r.status.WaitSeconds)
		}
		return nil
	}
}

// ringCounters sums the ring's public cluster counters.
type ringCounters struct{ peekHits, peekMisses, forwards, pushes int64 }

func (t *target) ringCounters() ringCounters {
	var c ringCounters
	for _, m := range t.members {
		if m.node == nil {
			continue
		}
		st := m.node.Status()
		c.peekHits += st.PeekHits
		c.peekMisses += st.PeekMisses
		c.forwards += st.Forwards
		c.pushes += st.ReplicaPushes
	}
	return c
}

// traced is the --trace 1 run: set up once, run the closed loop untraced
// and then traced for half the time each (the throughput ratio is the
// tracing overhead), check every answer, and replay the head of the
// request sequence through each layer's public functions.
func traced(r *run, name string, w workload, seed int64, seconds float64) error {
	e, _, err := setupMedian(w, seed, seconds, 1)
	if err != nil {
		return err
	}
	defer e.t.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	misses := newMissLog()
	c0 := e.t.ringCounters()
	plain := closedLoop(hc, e.at, 0, e.limit, 0, dur(seconds/2), false, e.verifier(misses))
	r.addLoop(plain)
	var lt loopTrace
	tl := closedLoop(hc, e.at, plain.attempted, e.limit, 0, dur(seconds/2), true, lt.wrap(e, e.verifier(misses)))
	r.addLoop(tl)
	// Replication is asynchronous: let it catch up before reading the
	// counters it moves.
	c1 := e.t.ringCounters()
	for deadline := time.Now().Add(10 * time.Second); c1.pushes-c0.pushes < c1.forwards-c0.forwards && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		c1 = e.t.ringCounters()
	}
	_, fails := misses.check()
	r.res.Failed += len(fails)
	r.failures = append(r.failures, fails...)

	// Layer replay on targets of its own.
	rp := &replayer{e: e, hc: hc, count: w.replay}
	rp.layer = server.New(server.Config{Devices: 1, MaxJobs: maxJobs, Logger: obs.DiscardLogger()})
	defer rp.layer.Close()
	if err := rp.bootFresh(); err != nil {
		return err
	}
	defer rp.fresh.close()
	var samples []*layerTimes
	for i := 0; i < rp.count; i++ {
		r.res.Attempted++
		s, err := rp.replay(i)
		if err != nil {
			r.res.Failed++
			r.fail("replay of request %d: %v", i, err)
			continue
		}
		samples = append(samples, s)
	}
	fmt.Fprintf(os.Stderr, "%s traced: %d+%d sent, %d failed, %d replayed\n",
		name, plain.attempted, tl.attempted, r.res.Failed, len(samples))
	reportLayers(r, samples, &lt, plain, tl, c0, c1)
	return nil
}

// reportLayers turns the replay samples and loop aggregates into the
// per-layer metrics. A layer that does no work on a workload reports 0.
func reportLayers(r *run, ss []*layerTimes, lt *loopTrace, plain, tl *loopResult, c0, c1 ringCounters) {
	avg := func(f func(*layerTimes) (float64, bool)) float64 {
		var xs []float64
		for _, s := range ss {
			if v, ok := f(s); ok {
				xs = append(xs, v)
			}
		}
		return mean(xs)
	}
	all := func(f func(*layerTimes) float64) float64 {
		return avg(func(s *layerTimes) (float64, bool) { return f(s), true })
	}
	submitted := func(f func(*layerTimes) float64) float64 {
		return avg(func(s *layerTimes) (float64, bool) { return f(s), s.submit > 0 })
	}
	ran := func(f func(*coreRun) float64) float64 {
		return avg(func(s *layerTimes) (float64, bool) {
			if s.core == nil {
				return 0, false
			}
			return f(s.core), true
		})
	}
	keyed := func(f func(*layerTimes) float64) float64 {
		return avg(func(s *layerTimes) (float64, bool) { return f(s), s.key > 0 })
	}
	read := func(f func(*layerTimes) float64) float64 {
		return avg(func(s *layerTimes) (float64, bool) { return f(s), s.key > 0 && s.core == nil })
	}
	var parseS, parseMB, hostS, modeledS float64
	for _, s := range ss {
		parseS += s.parse
		parseMB += s.textMB
		if s.core != nil {
			hostS += s.core.host
			modeledS += s.core.modeled
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	r.set("server.decode_s", "s", all(func(s *layerTimes) float64 { return s.decode }))
	r.set("server.encode_s", "s", all(func(s *layerTimes) float64 { return s.encode }))
	r.set("server.digest_s", "s", all(func(s *layerTimes) float64 { return s.digest }))
	r.set("server.submit_s", "s", submitted(func(s *layerTimes) float64 { return s.submit }))
	r.set("server.submit_self_s", "s", submitted(func(s *layerTimes) float64 { return math.Max(s.submit-s.parse-s.digest, 0) }))
	r.set("server.queue_wait_s", "s", mean(lt.waits))
	r.set("server.polls_per_req", "count", ratio(float64(lt.polls), float64(lt.replies)))
	r.set("server.cache_hit_ratio", "ratio", ratio(float64(lt.cached), float64(lt.replies)))

	r.set("gio.parse_s", "s", all(func(s *layerTimes) float64 { return s.parse }))
	r.set("gio.parse_mb_per_s", "MB/s", ratio(parseMB, parseS))
	r.set("gio.parse_allocs", "count", all(func(s *layerTimes) float64 { return s.parseAllocs }))

	r.set("core.coarsen_s", "s", ran(func(c *coreRun) float64 { return c.seg.Coarsen.Seconds() }))
	r.set("core.cpu_phase_s", "s", ran(func(c *coreRun) float64 { return c.seg.CPUPhase.Seconds() }))
	r.set("core.uncoarsen_s", "s", ran(func(c *coreRun) float64 { return c.seg.Uncoarsen.Seconds() }))
	r.set("core.host_per_modeled", "ratio", ratio(hostS, modeledS))
	r.set("core.alloc_mb_per_job", "MB", ran(func(c *coreRun) float64 { return c.allocMB }))
	r.set("core.allocs_per_job", "count", ran(func(c *coreRun) float64 { return c.allocs }))
	r.set("core.gpu_levels", "count", ran(func(c *coreRun) float64 { return float64(c.seg.GPULevels) }))
	r.set("core.cpu_levels", "count", ran(func(c *coreRun) float64 { return c.cpuLevels }))
	r.set("gpu.launches", "count", ran(func(c *coreRun) float64 { return c.launches }))
	r.set("modeled.gpu_s", "s", ran(func(c *coreRun) float64 { return c.gpuS }))
	r.set("modeled.cpu_s", "s", ran(func(c *coreRun) float64 { return c.cpuS }))
	r.set("modeled.pcie_s", "s", ran(func(c *coreRun) float64 { return c.pcieS }))

	r.set("cluster.key_s", "s", keyed(func(s *layerTimes) float64 { return s.key }))
	r.set("cluster.peek_s", "s", read(func(s *layerTimes) float64 { return s.peek }))
	r.set("cluster.hop_s", "s", read(func(s *layerTimes) float64 { return s.hop }))
	r.set("cluster.replication_lag_s", "s", avg(func(s *layerTimes) (float64, bool) { return s.replLag, s.replLag > 0 }))
	peeks := c1.peekHits - c0.peekHits + c1.peekMisses - c0.peekMisses
	r.set("cluster.peek_hit_ratio", "ratio", ratio(float64(c1.peekHits-c0.peekHits), float64(peeks)))
	r.set("cluster.replica_pushes_per_miss", "ratio", ratio(float64(c1.pushes-c0.pushes), float64(c1.forwards-c0.forwards)))

	r.set("trace.coverage", "ratio", all(func(s *layerTimes) float64 { return ratio(s.covered, s.e2e) }))
	r.set("trace.overhead", "ratio", 1-ratio(tl.throughput(), plain.throughput()))
}
