package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gpmetis/internal/server"
)

// pollInterval is the fixed wait between GET /jobs/{id} polls. It is a
// small fraction of the fastest miss (tens of milliseconds), so polling
// quantizes a miss's latency by at most a few percent; the gpmetis CLI's
// 100 ms would not.
const pollInterval = 5 * time.Millisecond

// clients is the load generator's concurrency: one closed-loop client
// goroutine, and so at most one request in flight, per host core.
const clients = 2

// newHTTPClient returns the load generator's client. Two goroutines share
// it, so at most two requests are ever in flight; idle keep-alive
// connections are capped to match.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			IdleConnTimeout:     30 * time.Second,
		},
	}
}

// span is one client-side interval around a call into the system, kept
// in memory by a traced loop.
type span struct {
	name       string
	start, end time.Time
}

// reply is one submission's outcome as the client saw it.
type reply struct {
	status  server.JobStatus
	polls   int
	latency time.Duration
	spans   []span
}

// submit posts one job and polls until it is terminal. The latency runs
// from sending POST /jobs until the client holds the decoded terminal
// JobStatus with its result. A job that does not end done is an error.
func submit(hc *http.Client, base string, body []byte, traced bool) (*reply, error) {
	r := &reply{}
	t0 := time.Now()
	code, err := call(hc, http.MethodPost, base+"/jobs", body, &r.status)
	if traced {
		r.spans = append(r.spans, span{"submit", t0, time.Now()})
	}
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return nil, fmt.Errorf("POST /jobs: HTTP %d: %s", code, r.status.Error)
	}
	for r.status.State == server.StateQueued || r.status.State == server.StateRunning {
		time.Sleep(pollInterval)
		p0 := time.Now()
		code, err := call(hc, http.MethodGet, base+"/jobs/"+r.status.ID, nil, &r.status)
		if traced {
			r.spans = append(r.spans, span{"poll", p0, time.Now()})
		}
		if err != nil {
			return nil, err
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("GET /jobs/%s: HTTP %d", r.status.ID, code)
		}
		r.polls++
	}
	r.latency = time.Since(t0)
	if r.status.State != server.StateDone || r.status.Result == nil {
		return nil, fmt.Errorf("job %s ended %s: %s", r.status.ID, r.status.State, r.status.Error)
	}
	return r, nil
}

// call performs one HTTP exchange and decodes a JSON body into out.
func call(hc *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && len(b) > 0 {
		if err := json.Unmarshal(b, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decode: %w", method, url, err)
		}
	}
	return resp.StatusCode, nil
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	latencies []float64 // seconds, one per completed request
	shapes    []shape   // the input shape of each completed request
	completed int
	failed    int
	attempted int
	wall      time.Duration // start → last completion
	allocMB   float64       // whole-process TotalAlloc delta over the phase
	spans     int
	failures  []string
}

// closedLoop drives submissions from index `from` with `clients`
// goroutines, each sending its next request only after the previous one
// completed. It keeps issuing while the phase is younger than dur or
// fewer than minDone requests were issued, and never past limit. Every
// issued request completes before it returns. onReply validates a
// completed request (a non-nil error makes it a failed operation, never a
// dropped sample) and runs outside the timed interval.
func closedLoop(hc *http.Client, at func(i int) *input, from, limit, minDone int, dur time.Duration,
	traced bool, onReply func(i int, in *input, r *reply) error) *loopResult {
	res := &loopResult{}
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
		last time.Time
	)
	next.Store(int64(from))
	var ms0 memStats
	ms0.read()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= limit || (time.Since(start) >= dur && i-from >= minDone) {
					return
				}
				in := at(i)
				r, err := submit(hc, in.Entry, in.Body, traced)
				done := time.Now()
				if err == nil {
					err = onReply(i, in, r)
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					res.failures = append(res.failures, fmt.Sprintf("request %d (%s n=%d): %v", i, in.Shape.Family, in.Shape.N, err))
				} else {
					res.completed++
					res.latencies = append(res.latencies, r.latency.Seconds())
					res.shapes = append(res.shapes, in.Shape)
					res.spans += len(r.spans)
				}
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.wall = last.Sub(start)
	var ms1 memStats
	ms1.read()
	res.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	return res
}

// byShape summarizes the latencies per input shape, for the log.
func (r *loopResult) byShape() []string {
	by := map[shape][]float64{}
	var order []shape
	for i, s := range r.shapes {
		if by[s] == nil {
			order = append(order, s)
		}
		by[s] = append(by[s], r.latencies[i])
	}
	var out []string
	for _, s := range order {
		out = append(out, fmt.Sprintf("  %-10s n=%-6d %4d done, median %.4fs", s.Family, s.N, len(by[s]), median(by[s])))
	}
	return out
}

// throughput is completed requests per wall second of the phase.
func (r *loopResult) throughput() float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(r.completed) / r.wall.Seconds()
}
