package main

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"gpmetis/internal/graph"
	"gpmetis/internal/server"
)

// Partition parameters every workload submits with.
const (
	partK  = 16
	partUB = 1.03
)

// env is one set-up instance of a workload: its inputs, the booted
// target, and what the checks need to know about each submission.
type env struct {
	t *target
	// at returns submission i of the sequence; limit bounds i.
	at    func(i int) *input
	limit int
	// miss reports whether submission i must run the partitioner; every
	// other submission must be answered from a cache.
	miss func(i int) bool
	// ref holds, per cached input, the result of the miss that produced
	// the cache entry: every hit must reproduce it byte for byte.
	ref map[*input]*server.JobResult
	// graphs holds the generated graph of each cached input.
	graphs map[*input]*graph.Graph
	// warmModeled lists the modeled seconds of the set-up jobs that ran
	// the partitioner.
	warmModeled []float64
}

// workload is one traffic mix.
type workload struct {
	// setup generates the inputs for a run of about `seconds`, boots the
	// target and warms its caches.
	setup func(seed int64, seconds float64) (*env, error)
	// replay is how many submissions from the head of the sequence the
	// traced run replays layer by layer: two of each cold-miss and
	// warm-hit shape, four ring cycles (twelve reads, four writes).
	replay int
}

var workloads = map[string]workload{
	"cold-miss":  {setupColdMiss, 8},
	"warm-hit":   {setupWarmHit, 8},
	"ring-mixed": {setupRingMixed, 16},
}

// Input shapes. The cold-miss GPU families sit well above core's
// 16384-vertex GPUThreshold (two GPU levels); its CPU families sit below
// it (no GPU level). Delaunay comes twice per cycle so that the latency
// p50 falls in the middle of the ldoor class and the p90 in the middle of
// the hugebubble class, not on a boundary between two classes where it
// would swing between them. The warm-hit graphs are the largest texts,
// the ring graphs small and sparse.
var (
	coldMissShapes = []shape{{"hugebubble", 40000}, {"usa-roads", 40000}, {"ldoor", 4096}, {"delaunay", 4000}, {"delaunay", 4000}}
	warmHitShapes  = []shape{{"ldoor", 6000}, {"hugebubble", 60000}, {"usa-roads", 80000}, {"delaunay", 40000}}
	ringShapes     = []shape{{"hugebubble", 6000}, {"usa-roads", 6000}}
)

// Pool sizing: the generated sequence must outlast a run of `seconds` at
// the highest rate a workload reaches on the reference host, with room
// to spare; a run that exhausts its pool simply ends early. The reference
// host's speed drifts: cold-miss ran 7 to 11.7 req/s over one hour.
const (
	coldMissMaxRPS  = 13.0
	ringMixedMaxRPS = 125.0
	ringReadPool    = 12
	// ringCacheCap sizes each ring node's result cache so that a run's
	// working set (reads plus every write, on owner and replica) fits:
	// peeks do not refresh LRU recency, so at the daemon's default of 128
	// entries the write stream would evict the read entries mid-run and
	// turn reads into recomputes, and the mix would drift over the run.
	ringCacheCap = 2048
)

func poolSize(seconds, rps float64) int {
	n := int(math.Ceil(seconds*rps)) + 20
	if min := minSamplesFor(0.9) + 20; n < min {
		n = min
	}
	return n
}

// warmup submits inputs two at a time, waits for each to finish and
// returns the results in input order.
func warmup(ins []*input) ([]*reply, error) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	out := make([]*reply, len(ins))
	errs := make([]error, len(ins))
	var wg sync.WaitGroup
	sem := make(chan struct{}, clients)
	for i, in := range ins {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, in *input) {
			defer func() { <-sem; wg.Done() }()
			out[i], errs[i] = submit(hc, in.Entry, in.Body, false)
		}(i, in)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up %s n=%d: %w", ins[i].Shape.Family, ins[i].Shape.N, err)
		}
	}
	return out, nil
}

// setupColdMiss: one node with two device slots; every submission is a
// distinct graph from a fresh generator seed, cycling the shapes.
func setupColdMiss(seed int64, seconds float64) (*env, error) {
	pool, err := genInputs(poolSize(seconds, coldMissMaxRPS), seed, 1, partK, partUB,
		func(i int) shape { return coldMissShapes[i%len(coldMissShapes)] }, nil)
	if err != nil {
		return nil, err
	}
	// One extra input per shape warms the server's lazy state (estimator
	// cells, first allocations) without touching the pool's cache keys.
	warm, err := genInputs(len(coldMissShapes), seed, 2, partK, partUB,
		func(i int) shape { return coldMissShapes[i] }, nil)
	if err != nil {
		return nil, err
	}
	t, err := bootSingle(2)
	if err != nil {
		return nil, err
	}
	for _, in := range append(warm, pool...) {
		in.Entry = t.members[0].base
	}
	if _, err := warmup(warm); err != nil {
		t.close()
		return nil, err
	}
	return &env{
		t: t, limit: len(pool),
		at:   func(i int) *input { return pool[i] },
		miss: func(int) bool { return true },
	}, nil
}

// setupWarmHit: one node with two device slots; four large graphs are
// computed during set-up and then resubmitted round-robin, so every
// timed submission is a cache hit.
func setupWarmHit(seed int64, _ float64) (*env, error) {
	e := &env{ref: map[*input]*server.JobResult{}, graphs: map[*input]*graph.Graph{}, miss: func(int) bool { return false }}
	var mu sync.Mutex
	ins, err := genInputs(len(warmHitShapes), seed, 3, partK, partUB,
		func(i int) shape { return warmHitShapes[i] },
		func(in *input, g *graph.Graph) error {
			mu.Lock()
			e.graphs[in] = g
			mu.Unlock()
			return nil
		})
	if err != nil {
		return nil, err
	}
	if e.t, err = bootSingle(2); err != nil {
		return nil, err
	}
	for _, in := range ins {
		in.Entry = e.t.members[0].base
	}
	if err := e.warmRefs(ins); err != nil {
		e.t.close()
		return nil, err
	}
	e.limit = math.MaxInt32
	e.at = func(i int) *input { return ins[i%len(ins)] }
	return e, nil
}

// warmRefs computes the cache entries of ins (they must be misses),
// checks each result against its graph, and records it as the reference
// every later hit must reproduce.
func (e *env) warmRefs(ins []*input) error {
	rs, err := warmup(ins)
	if err != nil {
		return err
	}
	for i, in := range ins {
		st := rs[i].status
		if st.Cached {
			return fmt.Errorf("warm-up %s n=%d: answered from a cache", in.Shape.Family, in.Shape.N)
		}
		if err := checkResult(e.graphs[in], in, st.Result); err != nil {
			return fmt.Errorf("warm-up %s n=%d: %w", in.Shape.Family, in.Shape.N, err)
		}
		e.ref[in] = st.Result
		e.warmModeled = append(e.warmModeled, st.Result.ModeledSeconds)
	}
	return nil
}

// setupRingMixed: a three-node RF=2 ring. Three of every four
// submissions resubmit one of twelve graphs cached (and replicated)
// during set-up; the fourth is a fresh small graph. Each goes to the one
// node outside its key's replica set.
func setupRingMixed(seed int64, seconds float64) (*env, error) {
	e := &env{ref: map[*input]*server.JobResult{}, graphs: map[*input]*graph.Graph{}}
	var mu sync.Mutex
	keyed := func(in *input) error {
		req, err := in.request()
		if err != nil {
			return err
		}
		in.Key, err = server.KeyForRequest(req)
		return err
	}
	reads, err := genInputs(ringReadPool, seed, 4, partK, partUB,
		func(i int) shape { return ringShapes[i%len(ringShapes)] },
		func(in *input, g *graph.Graph) error {
			mu.Lock()
			e.graphs[in] = g
			mu.Unlock()
			return keyed(in)
		})
	if err != nil {
		return nil, err
	}
	writes, err := genInputs(poolSize(seconds, ringMixedMaxRPS)/4, seed, 5, partK, partUB,
		func(i int) shape { return ringShapes[i%len(ringShapes)] },
		func(in *input, _ *graph.Graph) error { return keyed(in) })
	if err != nil {
		return nil, err
	}
	if e.t, err = bootRing(3, ringCacheCap); err != nil {
		return nil, err
	}
	for _, in := range append(reads, writes...) {
		e.t.route(in)
	}
	if err := e.warmRefs(reads); err != nil {
		e.t.close()
		return nil, err
	}
	// The timed phase starts from a fully replicated ring.
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	if err := awaitReplicas(hc, reads, 30*time.Second); err != nil {
		e.t.close()
		return nil, err
	}
	e.miss = func(i int) bool { return i%4 == 3 }
	e.limit = 4 * len(writes)
	e.at = func(i int) *input {
		if i%4 == 3 {
			return writes[i/4]
		}
		return reads[(3*(i/4)+i%4)%len(reads)]
	}
	return e, nil
}

// awaitReplicas waits until every input's replica holder answers a peek
// for its key, polling every 100µs so that the traced run can time a
// replication lag of about a millisecond.
func awaitReplicas(hc *http.Client, ins []*input, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, in := range ins {
		for {
			code, err := call(hc, "GET", in.Succ+"/internal/cache/"+in.Key, nil, nil)
			if err == nil && code == 200 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica of %.12s never reached %s", in.Key, in.Succ)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}
