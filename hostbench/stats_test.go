package main

import (
	"testing"
	"time"

	"gpmetis"
	"gpmetis/internal/graph"
	"gpmetis/internal/graph/gen"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	p50, _, err := percentile(ramp(100), 0.5)
	if err != nil || p50 != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", p50, err)
	}
	p90, beyond, err := percentile(ramp(100), 0.9)
	if err != nil || p90 != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, %v; want 90 with 10", p90, beyond, err)
	}
	p90, beyond, err = percentile(ramp(101), 0.9)
	if err != nil || p90 != 91 || beyond != 10 {
		t.Fatalf("p90 of 1..101 = %v with %d beyond, %v; want 91 with 10", p90, beyond, err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, beyond, err := percentile(ramp(99), 0.9); err == nil || beyond != 9 {
		t.Fatalf("p90 of 99 samples: %d beyond, err %v; want 9 and an error", beyond, err)
	}
	if _, _, err := percentile(ramp(19), 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond, want an error")
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples, want an error")
	}
}

func TestMinSamplesFor(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{0.9, 100}, {0.5, 20}, {0.99, 1000}} {
		if got := minSamplesFor(c.p); got != c.want {
			t.Errorf("minSamplesFor(%g) = %d, want %d", c.p, got, c.want)
		}
		if _, _, err := percentile(ramp(c.want), c.p); err != nil {
			t.Errorf("p%g of minSamplesFor samples: %v", 100*c.p, err)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}

// at returns times at the given millisecond offsets from t0.
func at(t0 time.Time, ms ...int) []time.Time {
	out := make([]time.Time, len(ms))
	for i, m := range ms {
		out[i] = t0.Add(time.Duration(m) * time.Millisecond)
	}
	return out
}

func TestSplitPolls(t *testing.T) {
	t0 := time.Unix(0, 0)
	ms := time.Millisecond
	cases := []struct {
		name                    string
		polls                   []int
		end                     int
		coarsen, cpu, uncoarsen time.Duration
		levels                  int
		stalled                 bool
	}{
		// Below GPUThreshold: the only poll is the CPU phase's, and there
		// is no uncoarsening poll to end the CPU phase at.
		{"zero GPU levels", []int{2}, 50, 2 * ms, 48 * ms, 0, 0, false},
		{"one level", []int{1, 30, 40}, 60, 30 * ms, 10 * ms, 20 * ms, 1, false},
		{"two levels", []int{1, 20, 35, 45, 52}, 70, 35 * ms, 10 * ms, 25 * ms, 2, false},
		// A stalled matching polls, then breaks to the CPU phase without
		// contracting: one coarsening poll more than levels contracted.
		{"stall after one level", []int{1, 20, 30, 45}, 60, 30 * ms, 15 * ms, 15 * ms, 1, true},
		{"stall at the first level", []int{1, 10}, 40, 10 * ms, 30 * ms, 0, 0, true},
	}
	for _, c := range cases {
		s, err := splitPolls(t0, at(t0, c.polls...), t0.Add(time.Duration(c.end)*ms))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if s.Coarsen != c.coarsen || s.CPUPhase != c.cpu || s.Uncoarsen != c.uncoarsen || s.GPULevels != c.levels || s.Stalled != c.stalled {
			t.Errorf("%s: got %+v", c.name, s)
		}
		if sum := s.Coarsen + s.CPUPhase + s.Uncoarsen; sum != time.Duration(c.end)*ms {
			t.Errorf("%s: segments sum to %v, call took %v", c.name, sum, time.Duration(c.end)*ms)
		}
	}
}

func TestSplitPollsRejects(t *testing.T) {
	t0 := time.Unix(0, 0)
	if _, err := splitPolls(t0, nil, t0.Add(time.Second)); err == nil {
		t.Error("no polls: want an error")
	}
	if _, err := splitPolls(t0, at(t0, 5, 3), t0.Add(time.Second)); err == nil {
		t.Error("polls out of order: want an error")
	}
	if _, err := splitPolls(t0, at(t0, 5), t0.Add(time.Millisecond)); err == nil {
		t.Error("poll after return: want an error")
	}
}

// pollRun partitions g with a Cancel hook recording its polls and splits
// the run; it returns the split and the tracer's GPU level count.
func pollRun(t *testing.T, g *graph.Graph, k int, o gpmetis.Options) (segments, int) {
	t.Helper()
	var polls []time.Time
	o.Cancel = func() error { polls = append(polls, time.Now()); return nil }
	o.Tracer = gpmetis.NewTracer()
	start := time.Now()
	if _, err := gpmetis.Partition(g, k, o); err != nil {
		t.Fatal(err)
	}
	s, err := splitPolls(start, polls, time.Now())
	if err != nil {
		t.Fatalf("%d polls: %v", len(polls), err)
	}
	if want := 2*s.GPULevels + 1; !s.Stalled && len(polls) != want {
		t.Fatalf("%d polls for %d levels, want %d", len(polls), s.GPULevels, want)
	}
	return s, int(o.Tracer.Metrics().Get("coarsen.gpu_levels"))
}

func TestPipelineBelowThresholdPollsOnce(t *testing.T) {
	for _, s := range []shape{{"delaunay", 4000}, {"ldoor", 4096}} {
		g, err := s.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		seg, levels := pollRun(t, g, partK, gpmetis.Options{})
		if seg.GPULevels != 0 || levels != 0 || seg.Uncoarsen != 0 || seg.Stalled {
			t.Errorf("%s: %+v, tracer levels %d; want no GPU level and one poll", s.Family, seg, levels)
		}
	}
}

func TestPipelineGPULevelsMatchTracer(t *testing.T) {
	if testing.Short() {
		t.Skip("partitions a 40000-vertex graph")
	}
	g, err := gen.HugeBubble(40000, 7)
	if err != nil {
		t.Fatal(err)
	}
	seg, levels := pollRun(t, g, partK, gpmetis.Options{})
	if seg.GPULevels < 2 || seg.GPULevels != levels || seg.Stalled {
		t.Errorf("%+v, tracer levels %d; want the same >= 2 levels", seg, levels)
	}
}

// A star defeats matching: the hub pairs with one leaf and every other
// leaf only neighbours the hub, so the level contracts almost nothing and
// coarsenGPU breaks out to the CPU phase after its poll.
func TestPipelineStalledMatchingAddsOnePoll(t *testing.T) {
	const n = 600
	b := gpmetis.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(0, v, 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seg, levels := pollRun(t, g, 2, gpmetis.Options{GPUThreshold: 100})
	if !seg.Stalled || seg.GPULevels != 0 || levels != 0 {
		t.Errorf("%+v, tracer levels %d; want a stalled first level", seg, levels)
	}
}
