package gio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// limitSizes lowers the header caps for the duration of a fuzz target so
// mutated headers cannot allocate gigabytes before any adjacency data is
// read.
func limitSizes(f *testing.F) {
	oldV, oldE := MaxVertices, MaxEdges
	MaxVertices, MaxEdges = 1<<12, 1<<14
	f.Cleanup(func() { MaxVertices, MaxEdges = oldV, oldE })
}

// FuzzRead checks the reader's contract on arbitrary bytes: it returns a
// valid graph or an error, and never panics. Accepted graphs must pass
// Validate and survive a Write/Read round trip unchanged.
func FuzzRead(f *testing.F) {
	limitSizes(f)
	for _, seed := range []string{
		// Valid inputs across the format's feature matrix.
		"7 11\n5 3 2\n1 3 4\n5 4 2 1\n2 3 6 7\n1 3 6\n5 4 7\n6 4\n",
		"3 2 011\n4 2 7\n6 1 7 3 2\n9 2 2\n",
		"2 1 010\n5 2\n3 1\n",
		"3 1\n2\n1\n\n",
		"0 0\n",
		// Known-rejected shapes, to seed the error paths.
		"2 1\n3\n1\n",           // neighbor out of range
		"2 5\n2\n1\n",           // edge count mismatch
		"2 1 001\n2 5\n1 7\n",   // asymmetric weights
		"2 1\n2\n\n",            // one-sided listing
		"2 1\n2 2\n1\n",         // duplicate neighbor
		"1 0\n1\n",              // self loop
		"999999999 0\n",         // header over the size cap
		"2 1 100\n2\n1\n",       // unsupported vertex sizes
		"% c\n\n2 1\n02\n01\n",  // comments, blanks, leading zeros
		"2 1 001\n2 -3\n1 -3\n", // non-positive edge weight
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid graph: %v", verr)
		}
		var buf bytes.Buffer
		if werr := Write(&buf, g); werr != nil {
			t.Fatalf("Write failed on accepted graph: %v", werr)
		}
		h, rerr := Read(&buf)
		if rerr != nil {
			t.Fatalf("Read rejected its own Write output: %v", rerr)
		}
		if h.NumVertices() != g.NumVertices() || h.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed size: %v -> %v", g, h)
		}
	})
}

// FuzzReadDifferential checks Read against readReference, the map-based
// reader it replaced: on any input both accept or both reject, and an
// accepted graph has the same CSR arrays. The seeds aim at the places
// where the reference's bufio.Scanner, strings.Fields and strconv.Atoi
// behave in ways a hand-written tokenizer can miss.
func FuzzReadDifferential(f *testing.F) {
	limitSizes(f)
	for _, seed := range []string{
		// Unicode whitespace strings.Fields splits on, and look-alikes it
		// does not: a bare 0x85 or 0xa0 byte is invalid UTF-8, not a space.
		"2 1\u00a0\n2\u3000\n1\u0085\n",
		"2\u00a01\n\u30002\n1\n",
		"2 1 001\n2\u20285\n1\u2029 5\n",
		"\u3000% comment\n2 1\n2\n1\n",
		"2 1\n2\x85\n1\n",
		"2 1\n2\xa0\n1\n",
		"2 1\n\xc2\n1\n",
		"3 1\n2\v\f\n1\n\u00a0\n",
		// CRLF line endings, a lone CR as the last line.
		"2 1\r\n2\r\n1\r\n",
		"3 1\r\n2\r\n1\r\n\r",
		// Signs, leading zeros, and tokens past int's range that a naive
		// accumulator would wrap to a valid value.
		"2 1\n+2\n1\n",
		"2 1 001\n2 +5\n0001 05\n",
		"2 1 001\n-2 5\n1 5\n",
		"+2 01\n2\n1\n",
		"2 1\n18446744073709551618\n1\n",
		"2 1 001\n2 18446744073709551621\n1 18446744073709551621\n",
		"2 1 001\n2 9223372036854775807\n1 9223372036854775807\n",
		"2 1 001\n2 9223372036854775808\n1 9223372036854775808\n",
		"18446744073709551618 0\n",
		"2 1 010 18446744073709551617\n1 2\n1 1\n",
		// Lines at and past the scanner's 16 MB token limit.
		"1 0\n" + strings.Repeat(" ", 1<<24-1) + "\n",
		"1 0\n" + strings.Repeat(" ", 1<<24),
		// Comments between vertex lines, blank and final lines.
		"3 2\n2\n% comment\n1 3\n  % indented\n2\n",
		"% c\n%\n2 1\n% between\n2\n1",
		"2 1\n2\n1\ntrailing garbage\n",
		"1 0\n",
		"1 0 010\n \n",
		// Unsorted rows, one row out of order, the header's counts off.
		"4 4\n4 2\n3 1\n4 2\n3 1\n",
		"3 1000\n2\n1 3\n2\n",
		"3 1\n2 3\n1 3\n1 2\n",
		"3 2\n3 2\n1\n2 1\n",
		// fmt and ncon fields the header check reads loosely.
		"2 1 x1\n2 5\n1 5\n",
		"2 1 1\n2 3\n1 3\n",
		"2 1 0001\n2\n1\n",
		"2 1 010 1\n1 2\n1 1\n",
		"2 1 010 -3\n1 2\n1 1\n",
		"2 1 010 x\n1 2\n1 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := readReference(bytes.NewReader(data))
		got, gerr := Read(bytes.NewReader(data))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("readReference error %v, Read error %v", werr, gerr)
		}
		if werr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Read built %+v, readReference %+v", got, want)
		}
	})
}

// FuzzReadGR does the same for the DIMACS9 .gr reader.
func FuzzReadGR(f *testing.F) {
	limitSizes(f)
	for _, seed := range []string{
		"c comment\np sp 4 5\na 1 2 10\na 2 1 10\na 2 3 7\na 3 2 5\na 1 1 3\n",
		"p sp 2 1\na 1 2 1\na 2 1 1\n",
		"p sp 0 0\n",
		"a 1 2 3\n",
		"p sp 999999999 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGR(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("ReadGR accepted an invalid graph: %v", verr)
		}
	})
}

// TestReadRejectsCorruptAdjacency pins the reader's hardened rejections:
// every class of inconsistency between a line and the rest of the file is
// an error, not a silently-patched graph.
func TestReadRejectsCorruptAdjacency(t *testing.T) {
	cases := []struct{ name, in, wantSub string }{
		{"one-sided edge", "2 1\n2\n\n", "listed by vertex"},
		{"one-sided from upper", "2 1\n\n1\n", "listed by vertex"},
		{"asymmetric weights", "2 1 001\n2 5\n1 7\n", "asymmetric weights"},
		{"duplicate neighbor", "3 2\n2 2\n1 1\n\n", "duplicate neighbor"},
		{"self loop", "1 1\n1\n", "self loop"},
		{"vertex count over cap", "999999999999 0\n", "exceeds limit"},
		{"edge count over cap", "2 999999999999\n2\n1\n", "exceeds limit"},
	}
	for _, tc := range cases {
		_, err := Read(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: Read should fail", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}
