package mtmetis

import (
	"math/rand"

	"gpmetis/internal/graph"
	"gpmetis/internal/metis"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// MatchTwoRound performs mt-metis's lock-free two-round matching
// (Section II.C): in round one every thread writes one-sided heavy-edge
// proposals match[v]=u into the shared vector with no synchronization; in
// round two each thread re-checks its vertices and re-matches to self any
// entry whose partner does not point back. Returns the symmetric matching
// plus the (conflicts, attempts) counts.
//
// The threads' interleaving is emulated deterministically: thread t scans
// its blocked chunk in order, reading whatever the shared vector holds at
// that moment, exactly the data-race semantics the lock-free scheme
// tolerates by design.
func MatchTwoRound(g *graph.Graph, threads, maxVWgt int, rng *rand.Rand, costs []perfmodel.ThreadCost) (match []int, conflicts, attempts int) {
	n := g.NumVertices()
	match = make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Round 1: unsynchronized one-sided proposals. The T threads progress
	// through their chunks concurrently, so the deterministic emulation
	// advances them in lockstep steps: in each step every thread picks a
	// partner for its next vertex using the pre-step state (the race
	// window), then the writes land in thread order, last-write-wins —
	// exactly the disagreement pattern round two resolves, and why the
	// conflict rate grows with the thread count (Section IV).
	maxChunk := 0
	for t := 0; t < threads; t++ {
		lo, hi := chunk(n, threads, t)
		if hi-lo > maxChunk {
			maxChunk = hi - lo
		}
	}
	picks := make([][2]int, 0, threads)
	for s := 0; s < maxChunk; s++ {
		picks = picks[:0]
		for t := 0; t < threads; t++ {
			lo, hi := chunk(n, threads, t)
			v := lo + s
			if v >= hi || match[v] != -1 {
				continue
			}
			adj, wgt := g.Neighbors(v)
			best, bestW := -1, -1
			for i, u := range adj {
				if match[u] != -1 || wgt[i] <= bestW {
					continue
				}
				if maxVWgt > 0 && g.VWgt[v]+g.VWgt[u] > maxVWgt {
					continue
				}
				best, bestW = u, wgt[i]
			}
			costs[t].Ops += float64(len(adj) + 2)
			costs[t].Rand += float64(len(adj))
			if best == -1 {
				match[v] = v
				continue
			}
			attempts++
			picks = append(picks, [2]int{v, best})
		}
		for _, p := range picks {
			v, u := p[0], p[1]
			match[v] = u // one-sided write
			if match[u] == -1 {
				match[u] = v // racy reverse link; a later write may differ
			}
		}
	}
	// Round 2: resolve conflicts.
	for t := 0; t < threads; t++ {
		lo, hi := chunk(n, threads, t)
		for v := lo; v < hi; v++ {
			u := match[v]
			if u == -1 {
				match[v] = v
				continue
			}
			if u != v && match[u] != v {
				match[v] = v
				conflicts++
			}
			costs[t].Ops += 2
			costs[t].Rand += 1
		}
	}
	return match, conflicts, attempts
}

// contractParallel builds the coarse graph with the pair rows distributed
// over threads: thread t assembles the rows of all coarse vertices whose
// representative (smaller endpoint) lies in t's chunk, then the
// per-thread segments are concatenated (modeled as the prefix-sum +
// copy-out that mt-metis does).
func contractParallel(g *graph.Graph, match, cmap []int, coarseN, threads int, costs []perfmodel.ThreadCost) *graph.Graph {
	n := g.NumVertices()
	cg := &graph.Graph{
		XAdj: make([]int, coarseN+1),
		VWgt: make([]int, coarseN),
	}
	type seg struct {
		adj, wgt []int
		rows     []int // coarse vertex ids in order
		rowLen   []int
	}
	segs := make([]seg, threads)
	// marker[c] = position of coarse neighbour c in the current thread's
	// segment while its row is assembled, or -1. The thread chunks run
	// one after another on the host, so one dense marker, reset after
	// each row, serves them all (as in metis.Contract).
	marker := make([]int, coarseN)
	for i := range marker {
		marker[i] = -1
	}

	for t := 0; t < threads; t++ {
		lo, hi := chunk(n, threads, t)
		s := &segs[t]
		for v := lo; v < hi; v++ {
			if match[v] < v {
				continue // the pair's representative owns the row
			}
			cv := cmap[v]
			members := [2]int{v, match[v]}
			cnt := 1
			if match[v] == v {
				cnt = 0
			}
			start := len(s.adj)
			for mi := 0; mi <= cnt; mi++ {
				mv := members[mi]
				adj, wgt := g.Neighbors(mv)
				for i, u := range adj {
					cu := cmap[u]
					if cu == cv {
						continue
					}
					if idx := marker[cu]; idx >= 0 {
						s.wgt[idx] += wgt[i]
					} else {
						marker[cu] = len(s.adj)
						s.adj = append(s.adj, cu)
						s.wgt = append(s.wgt, wgt[i])
					}
				}
				cg.VWgt[cv] += g.VWgt[mv]
				costs[t].Ops += float64(2 * len(adj))
				costs[t].Rand += float64(2 * len(adj))
			}
			for _, cu := range s.adj[start:] {
				marker[cu] = -1
			}
			s.rows = append(s.rows, cv)
			s.rowLen = append(s.rowLen, len(s.adj)-start)
		}
	}

	// Concatenate segments: coarse ids were assigned in representative
	// order, so appending the threads' rows in (thread, row) order keeps
	// the ids increasing.
	total := 0
	for t := range segs {
		total += len(segs[t].adj)
	}
	cg.Adjncy = make([]int, 0, total)
	cg.AdjWgt = make([]int, 0, total)
	for t := range segs {
		s := &segs[t]
		off := 0
		for i, cv := range s.rows {
			cg.XAdj[cv+1] = len(cg.Adjncy) + off + s.rowLen[i]
			off += s.rowLen[i]
		}
		cg.Adjncy = append(cg.Adjncy, s.adj...)
		cg.AdjWgt = append(cg.AdjWgt, s.wgt...)
		costs[t].SeqBytes += float64(8 * len(s.adj))
	}
	return cg
}

// Coarsen runs parallel two-round matching and contraction levels until
// the CoarsenTo*k threshold or a stall, mirroring metis.Coarsen but with
// per-thread accounting.
func Coarsen(g *graph.Graph, k int, o Options, m *perfmodel.Machine, tl *perfmodel.Timeline) (levels []metis.Level, conflicts, attempts int) {
	return coarsen(g, k, o, m, tl, nil)
}

// coarsen is Coarsen with tracing: each level becomes one span carrying
// its size, coarsening ratio, and matching conflict rate.
func coarsen(g *graph.Graph, k int, o Options, m *perfmodel.Machine, tl *perfmodel.Timeline, sink *obs.TimelineSink) (levels []metis.Level, conflicts, attempts int) {
	rng := rand.New(rand.NewSource(o.Seed))
	target := o.CoarsenTo * k
	maxVWgt := metis.MaxVertexWeight(g, k, o.CoarsenTo)
	cur := g
	for cur.NumVertices() > target {
		lvl := sink.Begin(obs.SpanCoarsenLevel, tl.Total(),
			obs.Str("side", "cpu"),
			obs.Int("level", int64(len(levels))),
			obs.Int("vertices", int64(cur.NumVertices())),
			obs.Int("edges", int64(cur.NumEdges())))
		costs := make([]perfmodel.ThreadCost, o.Threads)
		match, c, a := MatchTwoRound(cur, o.Threads, maxVWgt, rng, costs)
		conflicts += c
		attempts += a
		var cmAcct perfmodel.ThreadCost
		cmap, coarseN := metis.BuildCMap(match, &cmAcct)
		costs[0].Add(cmAcct) // cmap numbering is a cheap scan on one thread
		if float64(coarseN) > 0.95*float64(cur.NumVertices()) {
			sink.End(lvl, tl.Total(), obs.Bool("stalled", true))
			break
		}
		cg := contractParallel(cur, match, cmap, coarseN, o.Threads, costs)
		tl.Append("coarsen", perfmodel.LocCPU, m.CPUPhaseSeconds(costs))
		var rate float64
		if a > 0 {
			rate = float64(c) / float64(a)
		}
		sink.End(lvl, tl.Total(),
			obs.Int("coarse_vertices", int64(coarseN)),
			obs.Float("ratio", float64(coarseN)/float64(cur.NumVertices())),
			obs.Int("conflicts", int64(c)),
			obs.Int("attempts", int64(a)),
			obs.Float("conflict_rate", rate))
		levels = append(levels, metis.Level{Fine: cur, CMap: cmap, Coarse: cg})
		cur = cg
	}
	return levels, conflicts, attempts
}
