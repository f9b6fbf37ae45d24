package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
)

// inducedSubgraphReference is InducedSubgraph as it was before its
// inverse map became a dense array: the oracle the test below compares
// against.
func inducedSubgraphReference(g *graph.Graph, vs []int) (*graph.Graph, []int, error) {
	inv := make(map[int]int, len(vs))
	for i, v := range vs {
		if v < 0 || v >= g.NumVertices() {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph: vertex %d out of range", v)
		}
		if _, dup := inv[v]; dup {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph: duplicate vertex %d", v)
		}
		inv[v] = i
	}
	sub := &graph.Graph{
		XAdj: make([]int, len(vs)+1),
		VWgt: make([]int, len(vs)),
	}
	var adjncy, wgts []int
	for i, v := range vs {
		sub.VWgt[i] = g.VWgt[v]
		adj, wgt := g.Neighbors(v)
		for j, u := range adj {
			if iu, ok := inv[u]; ok {
				adjncy = append(adjncy, iu)
				wgts = append(wgts, wgt[j])
			}
		}
		sub.XAdj[i+1] = len(adjncy)
	}
	sub.Adjncy = adjncy
	sub.AdjWgt = wgts
	orig := make([]int, len(vs))
	copy(orig, vs)
	return sub, orig, nil
}

// TestInducedSubgraphMatchesReference checks that InducedSubgraph's
// output, errors included, is unchanged on generated graphs: random
// subsets in random order, the empty and the full selection, and
// selections with an out-of-range or a duplicate vertex.
func TestInducedSubgraphMatchesReference(t *testing.T) {
	graphs := map[string]func() (*graph.Graph, error){
		"delaunay":   func() (*graph.Graph, error) { return gen.Delaunay(600, 1) },
		"ldoor":      func() (*graph.Graph, error) { return gen.LDoor(500, 2) },
		"hugebubble": func() (*graph.Graph, error) { return gen.HugeBubble(700, 3) },
		"usa-roads":  func() (*graph.Graph, error) { return gen.RoadNetwork(700, 4) },
		"rmat":       func() (*graph.Graph, error) { return gen.RMAT(9, 8, 5) },
	}
	for name, build := range graphs {
		t.Run(name, func(t *testing.T) {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumVertices()
			r := rand.New(rand.NewSource(int64(n)))
			selections := [][]int{nil, {}, r.Perm(n)}
			for i := 0; i < 20; i++ {
				selections = append(selections, r.Perm(n)[:r.Intn(n+1)])
			}
			bad := append([]int(nil), r.Perm(n)[:10]...)
			selections = append(selections,
				append(append([]int(nil), bad...), n),
				append(append([]int(nil), bad...), -1),
				append(append([]int(nil), bad...), bad[3]),
				[]int{bad[0], bad[0], n})
			for _, vs := range selections {
				sub, orig, err := graph.InducedSubgraph(g, vs)
				wantSub, wantOrig, wantErr := inducedSubgraphReference(g, vs)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("selection of %d: error %v, reference %v", len(vs), err, wantErr)
				}
				if !reflect.DeepEqual(sub, wantSub) || !reflect.DeepEqual(orig, wantOrig) {
					t.Fatalf("selection of %d: subgraph differs from the reference", len(vs))
				}
				if err == nil {
					if verr := sub.Validate(); verr != nil {
						t.Fatalf("selection of %d: invalid subgraph: %v", len(vs), verr)
					}
				}
			}
		})
	}
}
