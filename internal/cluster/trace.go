package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gpmetis/internal/obs"
	"gpmetis/internal/server"
)

// fwdInfo is what the entry node remembers about a job it forwarded:
// the owning peer for proxying, and the trace context the forward
// carried — the shared trace id, the forward span's id (the remote
// spans' parent), the send instant on this node's clock, and the
// measured round trip. sentAt and rtt are the clock-alignment inputs:
// the owner received the forward at roughly sentAt + rtt/2 on this
// node's clock.
type fwdInfo struct {
	peer    Peer
	traceID string
	spanID  int64
	sentAt  time.Time
	rtt     float64
}

// handleTraceFetch serves this node's spans under a trace id — the
// stitching RPC. Job traces come from the job index (bounded by the
// server's MaxJobs retention); background-round traces from the bounded
// span store. Either bound may have evicted the trace, in which case
// the answer is 404 and the entry node falls back to a plain proxy.
func (n *Node) handleTraceFetch(w http.ResponseWriter, r *http.Request) {
	tid := r.PathValue("trace_id")
	if j, ok := n.srv.JobByTrace(tid); ok {
		nt := n.srv.NodeTraceForJob(j)
		nt.Addr = n.self.Addr
		writeJSON(w, http.StatusOK, nt)
		return
	}
	if st, ok := n.spans.Get(tid); ok {
		writeJSON(w, http.StatusOK, server.NodeTrace{
			NodeID:  strconv.Itoa(n.self.ID),
			Addr:    n.self.Addr,
			TraceID: tid,
			Spans:   st.Spans,
		})
		return
	}
	writeJSON(w, http.StatusNotFound,
		server.ErrorResponse{Error: "no spans under this trace id", Code: server.CodeNotFound})
}

// fetchRemoteTrace pulls the owner's spans for a forwarded job's trace.
func (n *Node) fetchRemoteTrace(fi fwdInfo) (*server.NodeTrace, error) {
	req, err := http.NewRequest(http.MethodGet, "http://"+fi.peer.Addr+"/internal/trace/"+fi.traceID, nil)
	if err != nil {
		return nil, err
	}
	tc := obs.TraceContext{TraceID: fi.traceID, SpanID: fi.spanID}
	resp, err := n.doRPC(n.client, fi.peer, rpcTraceFetch, tc, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace fetch status %d", resp.StatusCode)
	}
	var nt server.NodeTrace
	if err := json.Unmarshal(b, &nt); err != nil {
		return nil, err
	}
	return &nt, nil
}

// stitchForwardedTrace renders a forwarded job's distributed trace as
// one Chrome document with one pid per node:
//
//	pid 1  this entry node — the cluster-forward span (start = the
//	       forward's send instant, duration = its measured RTT)
//	pid 2  the owning node's service lifecycle spans
//	pid 3  the owning node's modeled partition sub-trace (if it ran)
//
// Clock alignment: the two nodes' wall clocks need not agree, so
// remote timestamps are re-anchored via the RPC envelope — the owner's
// local trace origin (its job-submission instant) is placed at
// sentAt + rtt/2 on the entry node's clock, the midpoint estimate of
// when the forward arrived. Remote lifecycle spans that carry no
// parent of their own are parented under the entry node's forward
// span, which is what makes the document one tree. Returns false
// (nothing written) when the remote fetch fails, so the caller can
// fall back to a plain proxy.
func (n *Node) stitchForwardedTrace(w http.ResponseWriter, fi fwdInfo) bool {
	nt, err := n.fetchRemoteTrace(fi)
	if err != nil {
		n.log.Warn("trace stitch failed; proxying the owner's document",
			"job_trace", fi.traceID, "peer", fi.peer.ID, "error", err.Error())
		return false
	}
	n.clearStrikes(fi.peer)

	events := []obs.ChromeEvent{
		obs.ProcessNameEvent(1, fmt.Sprintf("node %d (%s)", n.self.ID, n.self.Addr)),
		obs.ThreadNameEvent(1, 0, "cluster"),
		{
			Name: "cluster-forward",
			Cat:  "cluster",
			Ph:   "X",
			Ts:   0,
			Dur:  fi.rtt * 1e6,
			Pid:  1,
			Tid:  0,
			Args: map[string]any{
				"span": fi.spanID, "trace_id": fi.traceID, "job_id": nt.JobID,
				"to": fi.peer.ID, "to_addr": fi.peer.Addr,
				"rtt_seconds": fi.rtt, "node": strconv.Itoa(n.self.ID),
			},
		},
	}

	// The owner's local origin lands at the forward's RTT midpoint on
	// this node's clock; everything remote shifts by the same offset.
	alignUS := fi.rtt / 2 * 1e6
	events = append(events,
		obs.ProcessNameEvent(2, fmt.Sprintf("node %s (%s)", nt.NodeID, nt.Addr)),
		obs.ThreadNameEvent(2, 0, "lifecycle"),
	)
	for _, sp := range nt.Spans {
		args := map[string]any{
			"span": sp.Span, "trace_id": fi.traceID, "job_id": nt.JobID, "node": nt.NodeID,
		}
		for k, v := range sp.Attrs {
			args[k] = v
		}
		if _, ok := args["parent"]; !ok {
			args["parent"] = fi.spanID
		}
		startUS := float64(sp.StartUnixNano-nt.AnchorUnixNano) / 1e3
		events = append(events, obs.ChromeEvent{
			Name: sp.Name,
			Cat:  "service",
			Ph:   "X",
			Ts:   alignUS + startUS,
			Dur:  float64(sp.EndUnixNano-sp.StartUnixNano) / 1e3,
			Pid:  2,
			Tid:  0,
			Args: args,
		})
	}

	if len(nt.Modeled) > 0 {
		events = append(events, obs.ProcessNameEvent(3,
			fmt.Sprintf("node %s partition (modeled clock)", nt.NodeID)))
		for _, ev := range nt.Modeled {
			ev.Pid = 3
			if ev.Ph == "X" {
				ev.Ts += alignUS
			}
			events = append(events, ev)
		}
	}

	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeJSON(w, events)
	return true
}
