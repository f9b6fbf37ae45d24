package graph

import "fmt"

// InducedSubgraph returns the subgraph induced by the given vertices
// (which must be distinct and in range) along with the slice mapping each
// subgraph vertex back to its original id. Edges to vertices outside the
// selection are dropped.
func InducedSubgraph(g *Graph, vs []int) (*Graph, []int, error) {
	// inv[v] = subgraph id of original vertex v, or -1 when v is not
	// selected.
	inv := make([]int, g.NumVertices())
	for i := range inv {
		inv[i] = -1
	}
	for i, v := range vs {
		if v < 0 || v >= len(inv) {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph: vertex %d out of range", v)
		}
		if inv[v] >= 0 {
			return nil, nil, fmt.Errorf("graph: InducedSubgraph: duplicate vertex %d", v)
		}
		inv[v] = i
	}
	sub := &Graph{
		XAdj: make([]int, len(vs)+1),
		VWgt: make([]int, len(vs)),
	}
	var adjncy, wgts []int
	for i, v := range vs {
		sub.VWgt[i] = g.VWgt[v]
		adj, wgt := g.Neighbors(v)
		for j, u := range adj {
			if iu := inv[u]; iu >= 0 {
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
