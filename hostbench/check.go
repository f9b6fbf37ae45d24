package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"

	"gpmetis"
	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/server"
)

// checkResult validates one answer against the graph it partitions: one
// part per vertex, every part in [0,k), the reported edge cut equal to a
// recomputed one, the reported imbalance equal to a recomputed one, and
// the partition balanced at the request's ub.
func checkResult(g *graph.Graph, in *input, res *server.JobResult) error {
	if res == nil {
		return fmt.Errorf("no result")
	}
	if len(res.Part) != g.NumVertices() {
		return fmt.Errorf("len(part)=%d, graph has %d vertices", len(res.Part), g.NumVertices())
	}
	for v, p := range res.Part {
		if p < 0 || p >= in.K {
			return fmt.Errorf("vertex %d in part %d, want [0,%d)", v, p, in.K)
		}
	}
	if cut := graph.EdgeCut(g, res.Part); cut != res.EdgeCut {
		return fmt.Errorf("reported edge_cut %d, recomputed %d", res.EdgeCut, cut)
	}
	if imb := graph.Imbalance(g, res.Part, in.K); imb != res.Imbalance {
		return fmt.Errorf("reported imbalance %v, recomputed %v", res.Imbalance, imb)
	}
	if !graph.IsBalanced(g, res.Part, in.K, in.UB) {
		return fmt.Errorf("imbalance %.4f exceeds ub %.2f", res.Imbalance, in.UB)
	}
	if res.Degraded || res.FaultEvents != 0 {
		return fmt.Errorf("degraded run (%s, %d fault events)", res.DegradedReason, res.FaultEvents)
	}
	return nil
}

// sameResult reports how got differs from the reference result a cache
// entry was filled with; a cached answer must reproduce it exactly.
func sameResult(got, want *server.JobResult) error {
	if got == nil {
		return fmt.Errorf("no result")
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("cached result differs from the miss that produced it (cut %d vs %d, modeled %v vs %v)",
			got.EdgeCut, want.EdgeCut, got.ModeledSeconds, want.ModeledSeconds)
	}
	return nil
}

// directMatch reruns a request's partition with a direct gpmetis.Partition
// call on the graph parsed from the submitted text, with the options the
// server resolves for it, and requires the served result to match it bit
// for bit: partition vector, edge cut and modeled seconds.
func directMatch(in *input, res *server.JobResult) error {
	req, err := in.request()
	if err != nil {
		return err
	}
	g, err := gio.Read(strings.NewReader(req.Graph))
	if err != nil {
		return err
	}
	d, err := gpmetis.Partition(g, in.K, gpmetis.Options{Seed: 1, UBFactor: in.UB})
	if err != nil {
		return err
	}
	return matchDirect(res, d)
}

func matchDirect(res *server.JobResult, d *gpmetis.Result) error {
	if math.Float64bits(d.ModeledSeconds) != math.Float64bits(res.ModeledSeconds) {
		return fmt.Errorf("served modeled_seconds %v, direct Partition %v (diff %g)",
			res.ModeledSeconds, d.ModeledSeconds, res.ModeledSeconds-d.ModeledSeconds)
	}
	if d.EdgeCut != res.EdgeCut {
		return fmt.Errorf("served edge_cut %d, direct Partition %d", res.EdgeCut, d.EdgeCut)
	}
	if !reflect.DeepEqual(d.Part, res.Part) {
		return fmt.Errorf("served partition differs from direct Partition")
	}
	return nil
}

// crossCheckStride selects which misses a timed run also recomputes with
// a direct gpmetis.Partition call after its timed phase: every 11th,
// which is coprime to the input cycles (5 cold-miss shapes, 4-request
// ring cycle) and so reaches every shape.
const crossCheckStride = 11

// missLog keeps the answers to miss submissions for the checks that run
// after the timed phase, when regenerating graphs no longer competes with
// the requests being timed.
type missLog struct {
	mu  sync.Mutex
	ins map[int]*input
	res map[int]*server.JobResult
}

func newMissLog() *missLog {
	return &missLog{ins: map[int]*input{}, res: map[int]*server.JobResult{}}
}

func (m *missLog) add(i int, in *input, res *server.JobResult) {
	m.mu.Lock()
	m.ins[i], m.res[i] = in, res
	m.mu.Unlock()
}

// check validates every logged miss against its regenerated graph, and
// every crossCheckStride-th against a direct Partition call, on two
// goroutines. It returns one message per failed request.
func (m *missLog) check() (checked int, failures []string) {
	idx := make([]int, 0, len(m.ins))
	for i := range m.ins {
		idx = append(idx, i)
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += clients {
				i := idx[j]
				in, res := m.ins[i], m.res[i]
				g, err := in.regenerate()
				if err == nil {
					err = checkResult(g, in, res)
				}
				if err == nil && i%crossCheckStride == 0 {
					err = directMatch(in, res)
				}
				mu.Lock()
				checked++
				if err != nil {
					failures = append(failures, fmt.Sprintf("request %d (%s n=%d seed=%d): %v", i, in.Shape.Family, in.Shape.N, in.Seed, err))
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return checked, failures
}
