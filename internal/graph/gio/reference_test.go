package gio

// This file keeps the map-based reader that Read replaced, unchanged but
// for its names, as the oracle FuzzReadDifferential and BenchmarkRead
// compare Read against: it builds the graph through graph.Builder and
// checks symmetry with a map of every listed arc.

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gpmetis/internal/graph"
)

// readReference parses a Chaco/Metis format graph. Malformed input — out-of-range
// or duplicate neighbors, self loops, one-sided arc listings, asymmetric
// edge weights, or a header edge count that disagrees with the file —
// yields an error, never a panic.
func readReference(r io.Reader) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line, err := nextLineReference(sc)
	if err != nil {
		return nil, fmt.Errorf("gio: missing header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 4 {
		return nil, fmt.Errorf("gio: malformed header %q", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("gio: bad vertex count %q", fields[0])
	}
	if n > MaxVertices {
		return nil, fmt.Errorf("gio: vertex count %d exceeds limit %d", n, MaxVertices)
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil || m < 0 {
		return nil, fmt.Errorf("gio: bad edge count %q", fields[1])
	}
	if m > MaxEdges {
		return nil, fmt.Errorf("gio: edge count %d exceeds limit %d", m, MaxEdges)
	}
	hasVWgt, hasEWgt := false, false
	ncon := 0
	if len(fields) >= 3 {
		f := fields[2]
		if len(f) > 3 {
			return nil, fmt.Errorf("gio: unsupported fmt field %q", f)
		}
		for len(f) < 3 {
			f = "0" + f
		}
		if f[0] == '1' {
			return nil, fmt.Errorf("gio: vertex sizes (fmt %q) are not supported", fields[2])
		}
		hasVWgt = f[1] == '1'
		hasEWgt = f[2] == '1'
	}
	if len(fields) == 4 {
		ncon, err = strconv.Atoi(fields[3])
		if err != nil || ncon > 1 {
			return nil, fmt.Errorf("gio: multi-constraint graphs (ncon=%s) are not supported", fields[3])
		}
	}

	b := graph.NewBuilder(n)
	// arcs records every directed listing so one-sided edges, duplicate
	// neighbors, and asymmetric weights can be rejected after the scan.
	arcs := make(map[[2]int]int)
	for v := 0; v < n; v++ {
		line, err := nextLineReference(sc)
		if err != nil {
			return nil, fmt.Errorf("gio: vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVWgt {
			if len(toks) == 0 {
				return nil, fmt.Errorf("gio: vertex %d: missing vertex weight", v+1)
			}
			w, err := strconv.Atoi(toks[0])
			if err != nil {
				return nil, fmt.Errorf("gio: vertex %d: bad vertex weight %q", v+1, toks[0])
			}
			if err := b.SetVertexWeight(v, w); err != nil {
				return nil, fmt.Errorf("gio: vertex %d: %w", v+1, err)
			}
			i = 1
		}
		for i < len(toks) {
			u, err := strconv.Atoi(toks[i])
			if err != nil {
				return nil, fmt.Errorf("gio: vertex %d: bad neighbor %q", v+1, toks[i])
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("gio: vertex %d: neighbor %d out of [1,%d]", v+1, u, n)
			}
			i++
			w := 1
			if hasEWgt {
				if i >= len(toks) {
					return nil, fmt.Errorf("gio: vertex %d: missing weight for neighbor %d", v+1, u)
				}
				w, err = strconv.Atoi(toks[i])
				if err != nil {
					return nil, fmt.Errorf("gio: vertex %d: bad edge weight %q", v+1, toks[i])
				}
				i++
			}
			if u-1 == v {
				return nil, fmt.Errorf("gio: vertex %d: self loop", v+1)
			}
			key := [2]int{v, u - 1}
			if _, dup := arcs[key]; dup {
				return nil, fmt.Errorf("gio: vertex %d: duplicate neighbor %d", v+1, u)
			}
			arcs[key] = w
			// Each undirected edge appears on both endpoint lines; add it
			// once from the lower endpoint.
			if u-1 > v {
				if err := b.AddEdge(v, u-1, w); err != nil {
					return nil, fmt.Errorf("gio: vertex %d: %w", v+1, err)
				}
			}
		}
	}
	for key, w := range arcs {
		rw, ok := arcs[[2]int{key[1], key[0]}]
		if !ok {
			return nil, fmt.Errorf("gio: edge %d-%d listed by vertex %d but not by vertex %d",
				key[0]+1, key[1]+1, key[0]+1, key[1]+1)
		}
		if rw != w {
			return nil, fmt.Errorf("gio: asymmetric weights for edge %d-%d: %d and %d",
				key[0]+1, key[1]+1, w, rw)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("gio: header declares %d edges, file has %d", m, g.NumEdges())
	}
	return g, nil
}

func nextLineReference(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		// Blank lines are significant: they are the adjacency lists of
		// isolated vertices. Only comments are skipped.
		if strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}
