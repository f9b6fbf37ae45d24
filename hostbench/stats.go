package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile read from fewer samples is an anecdote, not a figure.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs: the
// smallest sample with at least ceil(p·n) samples at or below it. It also
// returns how many samples lie beyond that rank and fails when fewer than
// minTail do, so a run too short for its percentile says so instead of
// reporting its maximum.
func percentile(xs []float64, p float64) (float64, int, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, 0, fmt.Errorf("percentile p=%g of %d samples", p, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	beyond := n - rank
	if beyond < minTail {
		return s[rank-1], beyond, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d", 100*p, n, beyond, minTail)
	}
	return s[rank-1], beyond, nil
}

// minSamplesFor is the smallest sample count whose p-quantile has at
// least minTail samples beyond it.
func minSamplesFor(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minTail {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// segments is one GP-metis run split at its Options.Cancel polls.
type segments struct {
	Coarsen   time.Duration // call → CPU-phase poll: upload plus every GPU coarsening level
	CPUPhase  time.Duration // CPU-phase poll → first uncoarsening poll (→ return with no GPU levels)
	Uncoarsen time.Duration // first uncoarsening poll → return, final balance included
	GPULevels int           // GPU coarsening levels the run contracted
	Stalled   bool          // coarsening stopped at a stalled matching
}

// splitPolls attributes a single-device GP-metis run to its pipeline
// segments from the times of its Cancel polls. The core polls once before
// each GPU coarsening level, once when entering the CPU phase, and once
// before each GPU uncoarsening level, so an unstalled run with L levels
// polls 2L+1 times. A level whose matching stalls polls and then hands off
// without contracting, adding one coarsening poll: 2L+2. Either way the
// CPU-phase poll is poll number n/2 (0-based). A run below GPUThreshold
// polls exactly once, at the CPU phase, and has no uncoarsening poll: its
// GPU handoff, download and final balance then count as CPU phase.
func splitPolls(start time.Time, polls []time.Time, end time.Time) (segments, error) {
	n := len(polls)
	if n == 0 {
		return segments{}, fmt.Errorf("run made no Cancel poll")
	}
	for i := 1; i < n; i++ {
		if polls[i].Before(polls[i-1]) {
			return segments{}, fmt.Errorf("poll %d precedes poll %d", i, i-1)
		}
	}
	if polls[0].Before(start) || end.Before(polls[n-1]) {
		return segments{}, fmt.Errorf("polls fall outside the call")
	}
	c := n / 2
	s := segments{
		Coarsen:   polls[c].Sub(start),
		GPULevels: (n - 1) / 2,
		Stalled:   n%2 == 0,
	}
	if c+1 < n {
		s.CPUPhase = polls[c+1].Sub(polls[c])
		s.Uncoarsen = end.Sub(polls[c+1])
	} else {
		s.CPUPhase = end.Sub(polls[c])
	}
	return s, nil
}
