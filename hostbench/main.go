// Command hostbench measures gpmetisd on the host clock: in-process
// server.Server and cluster.Node instances serve real loopback HTTP to a
// closed-loop load generator of two clients, on three workloads — cold
// cache misses, warm cache hits, and mixed traffic through a three-node
// replicated ring. It checks every answer it receives and prints one JSON
// result line last on stdout.
//
//	hostbench --workload cold-miss --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it reports per-layer metrics from a traced run that
// replays the same request sequence through each layer's public
// functions. See README.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run accumulates one invocation's outcome.
type run struct {
	res      result
	failures []string
}

func (r *run) set(name, unit string, v float64) { r.res.Metrics[name] = metric{v, unit} }

func (r *run) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// addLoop folds a closed-loop phase's counts into the run.
func (r *run) addLoop(l *loopResult) {
	r.res.Attempted += l.attempted
	r.res.Failed += l.failed
	r.failures = append(r.failures, l.failures...)
}

type memStats struct{ runtime.MemStats }

func (m *memStats) read() { runtime.ReadMemStats(&m.MemStats) }

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func main() {
	workload := flag.String("workload", "", "cold-miss, warm-hit or ring-mixed")
	seed := flag.Int64("seed", 1, "workload seed: fixes every generated input")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: hostbench --workload {cold-miss|warm-hit|ring-mixed} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	r := &run{res: result{Metrics: map[string]metric{}}}
	var err error
	if *trace == 0 {
		err = timed(r, *workload, w, *seed, *seconds)
	} else {
		err = traced(r, *workload, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for i, f := range r.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "FAIL ... %d more\n", len(r.failures)-20)
			break
		}
		fmt.Fprintf(os.Stderr, "FAIL %s\n", f)
	}
	r.res.Correct = len(r.failures) == 0 && r.res.Failed == 0 && r.res.Attempted > 0
	names := make([]string, 0, len(r.res.Metrics))
	for n := range r.res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.res.Metrics[n]
		fmt.Fprintf(os.Stderr, "%-30s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, _ := json.Marshal(r.res)
	fmt.Println(string(out))
}

// setupMedian sets the workload up setupReps times, tearing down all but
// the last, and returns the last instance with the median set-up time.
func setupMedian(w workload, seed int64, seconds float64, reps int) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			e.t.close()
			e = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(seed, seconds); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}

// verifier returns the per-reply check a closed loop runs on each
// completed request: hits are compared with their reference result on
// the spot; misses are logged for the checks after the timed phase.
func (e *env) verifier(misses *missLog) func(i int, in *input, r *reply) error {
	return func(i int, in *input, r *reply) error {
		st := &r.status
		if in.Owner != "" && "http://"+st.Node != in.Owner {
			return fmt.Errorf("answered by node %q, key owner is %s", st.Node, in.Owner)
		}
		if e.miss(i) {
			if st.Cached {
				return fmt.Errorf("fresh graph answered from a cache")
			}
			misses.add(i, in, st.Result)
			return nil
		}
		// A resubmission whose entry was evicted in the meantime is
		// recomputed; the answer must still be the reference, bit for bit.
		return sameResult(st.Result, e.ref[in])
	}
}

// timed is the --trace 0 run: set up, one untraced closed-loop phase,
// then the output checks, and the end-to-end metrics.
func timed(r *run, name string, w workload, seed int64, seconds float64) error {
	e, setupS, err := setupMedian(w, seed, seconds, setupReps)
	if err != nil {
		return err
	}
	defer e.t.close()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	misses := newMissLog()
	minDone := minSamplesFor(0.9)
	l := closedLoop(hc, e.at, 0, e.limit, minDone, dur(seconds), false, e.verifier(misses))
	r.addLoop(l)
	checked, fails := misses.check()
	r.res.Failed += len(fails)
	r.failures = append(r.failures, fails...)
	fmt.Fprintf(os.Stderr, "%s: %d sent, %d completed, %d failed, %d misses checked, %.1fs timed\n",
		name, l.attempted, l.completed, r.res.Failed, checked, l.wall.Seconds())

	for _, line := range l.byShape() {
		fmt.Fprintln(os.Stderr, line)
	}
	p50, _, err50 := percentile(l.latencies, 0.5)
	p90, beyond, err90 := percentile(l.latencies, 0.9)
	if err90 != nil || err50 != nil {
		r.fail("latency percentiles: %v %v", err50, err90)
	}
	fmt.Fprintf(os.Stderr, "latency p90 has %d of %d samples beyond it\n", beyond, len(l.latencies))
	r.set("latency_p50_s", "s", p50)
	r.set("latency_p90_s", "s", p90)
	r.set("throughput_rps", "req/s", l.throughput())
	r.set("setup_s", "s", setupS)
	r.set("alloc_mb_per_req", "MB", l.allocMB/float64(max(l.completed, 1)))
	r.set("peak_rss_mb", "MB", peakRSSMB())

	// The exact metrics cover the first minDone submissions of the
	// sequence, which every run completes, so they are exact for a seed.
	var modeled, cuts []float64
	for i := 0; i < minDone; i++ {
		in := e.at(i)
		res := e.ref[in]
		if e.miss(i) {
			res = misses.res[i]
			if res != nil {
				modeled = append(modeled, res.ModeledSeconds)
			}
		}
		if res != nil {
			cuts = append(cuts, float64(res.EdgeCut))
		}
	}
	if len(modeled) == 0 {
		modeled = e.warmModeled
	}
	r.set("modeled_s", "s", mean(modeled))
	r.set("edge_cut", "edges", mean(cuts))
	return nil
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }
