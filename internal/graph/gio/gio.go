// Package gio reads and writes graphs in the Chaco/Metis text format used
// by the DIMACS challenges the paper takes its inputs from, so real
// "ldoor"/"delaunay_n20"/"hugebubbles"/"USA-road" files can be fed to the
// partitioners when available.
//
// Format: the header line is "n m [fmt]" where fmt's last two digits
// enable vertex weights (10) and edge weights (01). Each following
// non-comment line i lists vertex i's neighbors, 1-indexed, each preceded
// by the edge weight when enabled; the whole line is preceded by the
// vertex weight when enabled. Lines starting with '%' are comments.
//
// A Metis file lists its arcs in CSR order, so Read builds the CSR arrays
// in one pass over the text, with no per-line allocation: each line's
// neighbors are written straight into Adjncy/AdjWgt, a row is sorted in
// place only when it is not already ascending, and one sweep over the
// finished rows checks that every arc has its reverse with an equal
// weight. The arrays are sized from the header counts only after those
// are checked against the length of the input, so a short input cannot
// make Read allocate much more than its own size.
package gio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"

	"gpmetis/internal/graph"
)

// MaxVertices and MaxEdges bound the header counts Read and ReadGR
// accept, so a malicious or corrupt header cannot force a huge
// allocation before any adjacency data is seen. Variables (not
// constants) so tests and fuzzing can lower them.
var (
	MaxVertices = 1 << 27
	MaxEdges    = 1 << 29
)

// maxLineBytes bounds the length of one line, newline excluded. It is
// the token limit of the bufio.Scanner an earlier reader was built on,
// kept so the same files are accepted.
const maxLineBytes = 1 << 24

// fastDigits is the longest run of decimal digits that cannot overflow
// an int; longer or signed tokens go through strconv.Atoi.
const fastDigits = strconv.IntSize / 32 * 9

// Read parses a Chaco/Metis format graph. Malformed input — out-of-range
// or duplicate neighbors, self loops, one-sided arc listings, asymmetric
// or non-positive weights, over-long lines, or a header count that
// disagrees with the file — yields an error, never a panic.
//
// Read reads all of r and then parses it as ReadString does. Rows of the
// result are sorted by neighbor. Besides the input buffer, it makes a
// fixed number of allocations whatever the graph's size, each bounded by
// a small multiple of the input's length, since a vertex takes at least
// one byte of it and an arc two.
func Read(r io.Reader) (*graph.Graph, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("gio: read: %w", err)
	}
	// buf is never written again, so the string may alias its bytes.
	b := buf.Bytes()
	return ReadString(unsafe.String(unsafe.SliceData(b), len(b)))
}

// ReadString is Read on text already in memory. It does not copy s, and
// the returned graph does not refer to it.
func ReadString(s string) (*graph.Graph, error) {
	ls := lines{s: s}
	header, err := ls.next()
	if err != nil {
		return nil, fmt.Errorf("gio: missing header: %w", err)
	}
	var fields [5]string
	nf := 0
	for i := skipSpace(header, 0); i < len(header) && nf < len(fields); nf++ {
		j := fieldEnd(header, i)
		fields[nf] = header[i:j]
		i = skipSpace(header, j)
	}
	if nf < 2 || nf > 4 {
		return nil, fmt.Errorf("gio: malformed header %q", strings.TrimSpace(header))
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
	if nf >= 3 {
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
	if nf == 4 {
		ncon, err = strconv.Atoi(fields[3])
		if err != nil || ncon > 1 {
			return nil, fmt.Errorf("gio: multi-constraint graphs (ncon=%s) are not supported", fields[3])
		}
	}
	// Every vertex line takes at least one byte (its newline, or its
	// text when it ends the input), and k arcs at least 2k-1: a digit
	// each and a separator between them. A header that claims more arcs
	// than fit is caught by the edge count check below, after any error
	// in the lines themselves.
	body := len(s) - ls.pos
	if n > body {
		return nil, fmt.Errorf("gio: header declares %d vertices, but only %d bytes follow it", n, body)
	}
	xadj := make([]int, n+1)
	vwgt := make([]int, n)
	adjncy := make([]int, min(2*m, (body+1)/2))
	adjwgt := make([]int, len(adjncy))
	var rs *rowSorter
	k := 0
	for v := 0; v < n; v++ {
		line, err := ls.next()
		if err != nil {
			return nil, fmt.Errorf("gio: vertex %d: %w", v+1, err)
		}
		i := skipSpace(line, 0)
		vwgt[v] = 1
		if hasVWgt {
			if i == len(line) {
				return nil, fmt.Errorf("gio: vertex %d: missing vertex weight", v+1)
			}
			j := fieldEnd(line, i)
			w, ok := atoi(line[i:j])
			if !ok {
				return nil, fmt.Errorf("gio: vertex %d: bad vertex weight %q", v+1, line[i:j])
			}
			if w <= 0 {
				return nil, fmt.Errorf("gio: vertex %d: vertex weight %d must be positive", v+1, w)
			}
			vwgt[v] = w
			i = skipSpace(line, j)
		}
		for i < len(line) {
			j := fieldEnd(line, i)
			u, ok := atoi(line[i:j])
			if !ok {
				return nil, fmt.Errorf("gio: vertex %d: bad neighbor %q", v+1, line[i:j])
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("gio: vertex %d: neighbor %d out of [1,%d]", v+1, u, n)
			}
			i = skipSpace(line, j)
			w := 1
			if hasEWgt {
				if i == len(line) {
					return nil, fmt.Errorf("gio: vertex %d: missing weight for neighbor %d", v+1, u)
				}
				j = fieldEnd(line, i)
				if w, ok = atoi(line[i:j]); !ok {
					return nil, fmt.Errorf("gio: vertex %d: bad edge weight %q", v+1, line[i:j])
				}
				i = skipSpace(line, j)
			}
			if u-1 == v {
				return nil, fmt.Errorf("gio: vertex %d: self loop", v+1)
			}
			if w <= 0 {
				return nil, fmt.Errorf("gio: vertex %d: weight %d for neighbor %d must be positive", v+1, w, u)
			}
			if k == len(adjncy) {
				return nil, fmt.Errorf("gio: vertex %d: more arcs than the header's %d edges", v+1, m)
			}
			adjncy[k], adjwgt[k] = u-1, w
			k++
		}
		xadj[v+1] = k
		// Rows come out sorted by neighbor, as graph.Builder produces
		// them, so a graph's CSR (and its cache digest) does not depend
		// on the order its file lists neighbors in.
		if row := adjncy[xadj[v]:k]; unsortedAt(row) > 0 {
			if rs == nil {
				rs = new(rowSorter)
			}
			*rs = rowSorter{row, adjwgt[xadj[v]:k]}
			sort.Sort(rs)
			if p := unsortedAt(row); p > 0 {
				return nil, fmt.Errorf("gio: vertex %d: duplicate neighbor %d", v+1, row[p]+1)
			}
		}
	}
	if err := checkSymmetric(xadj, adjncy, adjwgt); err != nil {
		return nil, err
	}
	if k != 2*m {
		return nil, fmt.Errorf("gio: header declares %d edges, file has %d", m, k/2)
	}
	return &graph.Graph{XAdj: xadj, Adjncy: adjncy, AdjWgt: adjwgt, VWgt: vwgt}, nil
}

// checkSymmetric checks that every arc of the sorted, duplicate-free rows
// has its reverse with an equal weight. Visiting vertices in ascending
// order, the arcs into u from below arrive in the order u's sorted row
// lists them, so one cursor per row matches each arc v→u (v < u) to the
// next unmatched entry of u, and by the time v is visited every entry of
// its row below v must have been matched.
func checkSymmetric(xadj, adjncy, adjwgt []int) error {
	n := len(xadj) - 1
	next := make([]int, n)
	copy(next, xadj[:n])
	for v := 0; v < n; v++ {
		p := next[v]
		if p < xadj[v+1] && adjncy[p] < v {
			return oneSided(v, adjncy[p])
		}
		for ; p < xadj[v+1]; p++ {
			u := adjncy[p]
			q := next[u]
			if q == xadj[u+1] || adjncy[q] != v {
				if q < xadj[u+1] && adjncy[q] < v {
					return oneSided(u, adjncy[q])
				}
				return oneSided(v, u)
			}
			if adjwgt[q] != adjwgt[p] {
				return fmt.Errorf("gio: asymmetric weights for edge %d-%d: %d and %d",
					v+1, u+1, adjwgt[p], adjwgt[q])
			}
			next[u] = q + 1
		}
	}
	return nil
}

// oneSided reports an arc v→u whose reverse u→v is missing.
func oneSided(v, u int) error {
	return fmt.Errorf("gio: edge %d-%d listed by vertex %d but not by vertex %d", v+1, u+1, v+1, u+1)
}

// unsortedAt returns the index of the first entry of row that is not
// greater than the one before it, or 0 when row is strictly ascending.
func unsortedAt(row []int) int {
	for p := 1; p < len(row); p++ {
		if row[p] <= row[p-1] {
			return p
		}
	}
	return 0
}

// rowSorter sorts one CSR row by neighbor, carrying the arc weights along.
type rowSorter struct{ adj, wgt []int }

func (r *rowSorter) Len() int           { return len(r.adj) }
func (r *rowSorter) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *rowSorter) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wgt[i], r.wgt[j] = r.wgt[j], r.wgt[i]
}

// lines walks the lines of a text, newline excluded.
type lines struct {
	s   string
	pos int
}

// next returns the next line that is not a comment. Blank lines are
// returned: they are the adjacency lists of isolated vertices. A comment
// is a line whose first non-space character is '%'.
func (ls *lines) next() (string, error) {
	for ls.pos < len(ls.s) {
		line := ls.s[ls.pos:]
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i]
			ls.pos += i + 1
		} else {
			ls.pos = len(ls.s)
		}
		if len(line) >= maxLineBytes {
			return "", bufio.ErrTooLong
		}
		if i := skipSpace(line, 0); i == len(line) || line[i] != '%' {
			return line, nil
		}
	}
	return "", io.ErrUnexpectedEOF
}

// Fields are separated by the runes strings.Fields splits on: ASCII
// whitespace and the Unicode spaces, such as U+00A0 and U+3000.
// asciiSpace marks the ASCII ones.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// skipSpace returns the index of the first non-space rune of line at or
// after i, or len(line).
func skipSpace(line string, i int) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				return i
			}
			i++
		} else if space, w := decodeSpace(line[i:]); space {
			i += w
		} else {
			return i
		}
	}
	return i
}

// fieldEnd returns the index just past the field that starts at line[i].
func fieldEnd(line string, i int) int {
	for i < len(line) {
		if c := line[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				return i
			}
			i++
		} else if space, w := decodeSpace(line[i:]); !space {
			i += w
		} else {
			return i
		}
	}
	return i
}

// decodeSpace decodes the rune s starts with and reports whether it is a
// space, and its width. Invalid UTF-8 decodes as one non-space byte.
func decodeSpace(s string) (space bool, width int) {
	r, w := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r), w
}

// atoi is strconv.Atoi, with the common case of a short unsigned decimal
// token parsed inline.
func atoi(tok string) (int, bool) {
	if len(tok) > 0 && len(tok) <= fastDigits {
		v, i := 0, 0
		for ; i < len(tok) && tok[i]-'0' <= 9; i++ {
			v = v*10 + int(tok[i]-'0')
		}
		if i == len(tok) {
			return v, true
		}
	}
	v, err := strconv.Atoi(tok)
	return v, err == nil
}

// Write serializes g in Chaco/Metis format. Vertex weights are written
// only when some weight differs from 1; likewise edge weights.
func Write(w io.Writer, g *graph.Graph) error {
	hasVWgt, hasEWgt := false, false
	for _, x := range g.VWgt {
		if x != 1 {
			hasVWgt = true
			break
		}
	}
	for _, x := range g.AdjWgt {
		if x != 1 {
			hasEWgt = true
			break
		}
	}
	bw := bufio.NewWriter(w)
	fmtField := ""
	switch {
	case hasVWgt && hasEWgt:
		fmtField = " 011"
	case hasVWgt:
		fmtField = " 010"
	case hasEWgt:
		fmtField = " 001"
	}
	if _, err := fmt.Fprintf(bw, "%d %d%s\n", g.NumVertices(), g.NumEdges(), fmtField); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		first := true
		if hasVWgt {
			if _, err := fmt.Fprintf(bw, "%d", g.VWgt[v]); err != nil {
				return err
			}
			first = false
		}
		adj, wgt := g.Neighbors(v)
		for i, u := range adj {
			if !first {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			first = false
			if _, err := fmt.Fprintf(bw, "%d", u+1); err != nil {
				return err
			}
			if hasEWgt {
				if _, err := fmt.Fprintf(bw, " %d", wgt[i]); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
