package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
	"gpmetis/internal/graph/gio"
	"gpmetis/internal/server"
)

// shape is one input family at one generator size.
type shape struct {
	Family string
	N      int
}

// generate builds the graph of a shape for one generator seed.
func (s shape) generate(seed int64) (*graph.Graph, error) {
	switch s.Family {
	case "ldoor":
		return gen.LDoor(s.N, seed)
	case "delaunay":
		return gen.Delaunay(s.N, seed)
	case "hugebubble":
		return gen.HugeBubble(s.N, seed)
	case "usa-roads":
		return gen.RoadNetwork(s.N, seed)
	}
	return nil, fmt.Errorf("unknown family %q", s.Family)
}

// input is one generated graph and the submission that carries it. The
// program only ever sees body; the rest is what the benchmark needs to
// route the submission and to check its answer.
type input struct {
	Shape  shape
	Seed   int64 // generator seed
	K      int
	UB     float64
	Body   []byte // JSON SubmitRequest, graph text inline
	TextMB float64

	// Ring workloads: the content key the ring routes on, and the base
	// URLs of the key's owner, its replica holder and the entry node the
	// benchmark submits to (a node outside the key's replica set).
	Key                string
	Owner, Succ, Entry string
}

// newInput generates a shape's graph and its submission body.
func newInput(s shape, seed int64, k int, ub float64) (*input, *graph.Graph, error) {
	g, err := s.generate(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s n=%d seed=%d: %w", s.Family, s.N, seed, err)
	}
	var text bytes.Buffer
	if err := gio.Write(&text, g); err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(server.SubmitRequest{Graph: text.String(), K: k, UB: ub})
	if err != nil {
		return nil, nil, err
	}
	return &input{Shape: s, Seed: seed, K: k, UB: ub, Body: body, TextMB: float64(text.Len()) / 1e6}, g, nil
}

// regenerate rebuilds the graph an input carries, for output checks.
func (in *input) regenerate() (*graph.Graph, error) { return in.Shape.generate(in.Seed) }

// request decodes the submission body, as the server's handler would.
func (in *input) request() (*server.SubmitRequest, error) {
	var req server.SubmitRequest
	err := json.Unmarshal(in.Body, &req)
	return &req, err
}

// mix derives a per-item generator seed from the workload seed, so every
// item of every workload gets its own stream and one --seed fixes all.
func mix(seed int64, stream, i uint64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xBF58476D1CE4E5B9 ^ i*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x>>1) | 1
}

// genInputs generates count inputs on two goroutines (the host has two
// cores), item i from shapeOf(i) with generator seed mix(seed, stream, i).
// keep(in, g) may retain the graph; it is called from the generating
// goroutine.
func genInputs(count int, seed int64, stream uint64, k int, ub float64,
	shapeOf func(i int) shape, keep func(in *input, g *graph.Graph) error) ([]*input, error) {
	out := make([]*input, count)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < count; i += 2 {
				in, g, err := newInput(shapeOf(i), mix(seed, stream, uint64(i)), k, ub)
				if err == nil && keep != nil {
					err = keep(in, g)
				}
				if err != nil {
					errs[w] = err
					return
				}
				out[i] = in
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
