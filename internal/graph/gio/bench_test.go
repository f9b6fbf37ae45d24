package gio

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
)

// generated names a generator input at one size, as hostbench and the
// experiments use them.
type generated struct {
	name  string
	build func() (*graph.Graph, error)
}

var generatedInputs = []generated{
	{"hugebubble-40000", func() (*graph.Graph, error) { return gen.HugeBubble(40000, 1) }},
	{"usa-roads-40000", func() (*graph.Graph, error) { return gen.RoadNetwork(40000, 1) }},
	{"ldoor-4096", func() (*graph.Graph, error) { return gen.LDoor(4096, 1) }},
	{"hugebubble-6000", func() (*graph.Graph, error) { return gen.HugeBubble(6000, 1) }},
	{"delaunay-4000", func() (*graph.Graph, error) { return gen.Delaunay(4000, 1) }},
}

var (
	textsOnce sync.Once
	texts     map[string]string
	textsErr  error
)

// generatedTexts writes every generated input in Metis format, once per
// test binary.
func generatedTexts(tb testing.TB) map[string]string {
	tb.Helper()
	textsOnce.Do(func() {
		texts = map[string]string{}
		for _, in := range generatedInputs {
			g, err := in.build()
			if err != nil {
				textsErr = fmt.Errorf("%s: %w", in.name, err)
				return
			}
			var buf bytes.Buffer
			if err := Write(&buf, g); err != nil {
				textsErr = fmt.Errorf("%s: %w", in.name, err)
				return
			}
			texts[in.name] = buf.String()
		}
	})
	if textsErr != nil {
		tb.Fatal(textsErr)
	}
	return texts
}

// TestReadMatchesReferenceOnGenerated pins that Read builds exactly the
// graph the map-based reader built for every generator family, so cache
// digests, journals and replicas made before the rewrite stay valid.
func TestReadMatchesReferenceOnGenerated(t *testing.T) {
	for name, text := range generatedTexts(t) {
		want, err := readReference(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: readReference: %v", name, err)
		}
		got, err := ReadString(text)
		if err != nil {
			t.Fatalf("%s: ReadString: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ReadString's graph differs from readReference's", name)
		}
	}
}

// TestReadAllocsConstant pins Read to a fixed number of allocations: the
// input buffer, the four CSR arrays, the symmetry cursors and the Graph,
// whatever the graph's size, so per-line garbage cannot creep back.
func TestReadAllocsConstant(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{600, 6000} {
		g, err := gen.HugeBubble(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		text := buf.String()
		counts[n] = testing.AllocsPerRun(5, func() {
			if _, err := Read(strings.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[6000] > 16 || counts[6000] != counts[600] {
		t.Errorf("Read allocations: %v at n=600, %v at n=6000; want equal and <= 16", counts[600], counts[6000])
	}
}

// TestReadHeaderCannotForceAllocation feeds headers whose counts are
// within MaxVertices/MaxEdges but far beyond what the body could hold:
// Read must fail, or succeed, without sizing arrays from those counts.
func TestReadHeaderCannotForceAllocation(t *testing.T) {
	for _, in := range []string{
		"134217727 0\n",
		"1 536870911\n\n",
		"2 536870911 011\n1 2 1\n1 1 1\n",
	} {
		for _, read := range []func(string) error{
			func(s string) error { _, err := Read(strings.NewReader(s)); return err },
			func(s string) error { _, err := ReadString(s); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := read(in)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%q: Read should fail", in)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("%q: Read allocated %d bytes before failing", in, d)
			}
		}
	}
}

var benchGraph *graph.Graph

// BenchmarkRead compares Read with readReference on the generated inputs
// the host-clock benchmark serves; MB/s is input text per second.
func BenchmarkRead(b *testing.B) {
	all := generatedTexts(b)
	readers := []struct {
		name string
		read func(string) (*graph.Graph, error)
	}{
		{"reference", func(s string) (*graph.Graph, error) { return readReference(strings.NewReader(s)) }},
		{"read", func(s string) (*graph.Graph, error) { return Read(strings.NewReader(s)) }},
	}
	for _, in := range generatedInputs {
		text := all[in.name]
		for _, r := range readers {
			b.Run(in.name+"/"+r.name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g, err := r.read(text)
					if err != nil {
						b.Fatal(err)
					}
					benchGraph = g
				}
			})
		}
	}
}
