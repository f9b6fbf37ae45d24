package server

import (
	"context"
	"fmt"
	"time"

	"gpmetis"
	"gpmetis/internal/obs"
)

// foldedJob is one job's state after folding its journal records: the
// last transition wins, the submit record supplies the request.
type foldedJob struct {
	seq    int
	req    *SubmitRequest
	state  string
	key    string
	res    *JobResult
	errMsg string
}

// recover replays the configured journal and rebuilds the previous
// process's job index before the workers start:
//
//   - terminal jobs come back as queryable terminal entries, and done
//     results repopulate the cache index so identical submits hit again;
//   - queued jobs are re-admitted in their original order;
//   - running jobs are re-admitted too, resuming from their crash
//     checkpoint when one is on disk (stale or corrupt snapshots are
//     dropped and the job reruns from scratch).
//
// Replay tolerates a torn tail: records after the first unparsable line
// are dropped and counted. recover runs from New, strictly before the
// pool starts, so re-admission cannot race live submissions.
func (s *Server) recover() {
	recs, dropped, err := ReplayJournal(s.cfg.JournalPath)
	if err != nil {
		s.journalDegraded(err)
		return
	}
	if dropped > 0 {
		s.reg.Add("journal.replay_dropped", float64(dropped))
		s.log.Warn("journal replay dropped corrupt trailing lines", "dropped", dropped)
	}
	if len(recs) == 0 {
		return
	}

	var order []string
	var estCells []EstimatorCell
	var replicaOrder []string
	replicaRecs := map[string]*JobResult{}
	byID := map[string]*foldedJob{}
	for _, rec := range recs {
		switch rec.Type {
		case RecReplica:
			if rec.Key != "" && rec.Result != nil {
				if _, seen := replicaRecs[rec.Key]; !seen {
					replicaOrder = append(replicaOrder, rec.Key)
				}
				replicaRecs[rec.Key] = rec.Result
			}
		case RecEstimator:
			// Last record wins: the estimator snapshots monotonically, so
			// the newest cells subsume every earlier append.
			estCells = rec.Est
		case RecSubmit:
			if f, ok := byID[rec.ID]; ok {
				// A running record can beat its submit into the journal
				// (worker and submitter append concurrently); the late
				// submit just fills in the request.
				if f.req == nil {
					f.req = rec.Req
					f.seq = rec.Seq
				}
			} else {
				byID[rec.ID] = &foldedJob{seq: rec.Seq, req: rec.Req, state: StateQueued}
				order = append(order, rec.ID)
			}
		case RecRunning:
			if f, ok := byID[rec.ID]; ok {
				f.state = StateRunning
			} else {
				byID[rec.ID] = &foldedJob{seq: seqOf(rec.ID), state: StateRunning}
				order = append(order, rec.ID)
			}
		case RecDone:
			if f, ok := byID[rec.ID]; ok {
				f.state = StateDone
				f.key = rec.Key
				f.res = rec.Result
			}
		case RecFailed:
			if f, ok := byID[rec.ID]; ok {
				f.state = StateFailed
				f.errMsg = rec.Error
			}
		case RecCanceled:
			if f, ok := byID[rec.ID]; ok {
				f.state = StateCanceled
				f.errMsg = rec.Error
			}
		}
	}

	// Warm the estimator before re-admitting jobs: readmit captures cost
	// tags from it, and deadline admission should not restart on priors.
	if len(estCells) > 0 {
		s.est.restore(estCells)
		s.reg.Add("estimator.restored_cells", float64(len(estCells)))
	}

	var readmitted, resumed, results int
	for _, id := range order {
		f := byID[id]
		if f.seq > s.seq {
			s.seq = f.seq // never reissue a journaled ID
		}
		switch f.state {
		case StateDone:
			j := terminalJob(id, StateDone, f.res, "")
			j.key = f.key
			s.indexRecovered(j)
			if f.key != "" && f.res != nil {
				s.cache.Put(f.key, &CachedResult{Result: *f.res})
				results++
			}
		case StateFailed, StateCanceled:
			s.indexRecovered(terminalJob(id, f.state, nil, f.errMsg))
		default:
			s.readmit(id, f, &readmitted, &resumed)
		}
	}
	if results > 0 {
		s.reg.Add("jobs.recovered_results", float64(results))
	}
	// Replica-held entries re-seed the cache after the node's own done
	// results (a key can be both; the local result wins, idempotently).
	// They repopulate replicaKeys so rotation keeps preserving them, and
	// they never fire the replication hook: the replicas that sent them
	// still hold them.
	replicas := 0
	for _, key := range replicaOrder {
		if _, ok := s.cache.Peek(key); !ok {
			s.cache.Put(key, &CachedResult{Result: *replicaRecs[key]})
			replicas++
		}
		s.mu.Lock()
		s.replicaKeys[key] = true
		s.mu.Unlock()
	}
	if replicas > 0 {
		s.reg.Add("jobs.recovered_replicas", float64(replicas))
	}
	s.event(obs.EvRecovered, nil, -1,
		fmt.Sprintf("%d recovered, %d results cached, %d replica entries, %d re-admitted, %d resumed",
			len(order), results, replicas, readmitted, resumed))
	s.log.Info("journal replay complete",
		"jobs_recovered", len(order), "results_cached", results,
		"replica_entries", replicas,
		"readmitted", readmitted, "resumed_from_checkpoint", resumed)
}

// readmit rebuilds one interrupted job from its submit record and puts
// it back in the queue under its original ID. A running job with a
// loadable checkpoint resumes from it.
func (s *Server) readmit(id string, f *foldedJob, readmitted, resumed *int) {
	if f.req == nil {
		s.indexRecovered(terminalJob(id, StateFailed, nil, "lost across restart: journal has no request"))
		return
	}
	job, err := resolveRequest(f.req)
	if err != nil {
		s.indexRecovered(terminalJob(id, StateFailed, nil, fmt.Sprintf("unreplayable across restart: %v", err)))
		return
	}
	job.ID = id
	job.recovered = true
	job.tenant = s.tenants.state(f.req.Tenant)
	est := s.est.costs(job.algo, job.vertices)
	job.estWall, job.estModeled = est.wall, est.modeled
	// A recovered job gets a fresh trace ID (the journal does not record
	// them) and a lifecycle clock restarting at recovery, mirroring the
	// deadline decision below.
	job.traceID = "recovered-" + obs.NewTraceID()
	job.submittedAt = time.Now()

	// The deadline clock restarts at recovery: the journal records no
	// submit timestamp, and charging crash downtime against the job
	// would fail work the previous process had already accepted.
	deadline := time.Duration(f.req.DeadlineMs) * time.Millisecond
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if deadline > 0 {
		job.ctx, job.cancel = context.WithTimeout(s.baseCtx, deadline)
	} else {
		job.ctx, job.cancel = context.WithCancel(s.baseCtx)
	}

	if job.key != "" {
		if hit, ok := s.cache.Get(job.key); ok {
			s.indexRecovered(job)
			job.finishCached(hit)
			s.spawnWatch(job)
			return
		}
	}

	if f.state == StateRunning {
		if path := s.pool.checkpointPath(job); path != "" {
			if c, err := gpmetis.ReadCheckpointFile(path); err == nil {
				job.resume = c
				s.reg.Add("jobs.resumed", 1)
				*resumed++
			} else {
				// A missing file just means the run never snapshotted; a
				// corrupt one is dropped — the rerun starts from scratch.
				s.jlog(job).Warn("no usable checkpoint; rerunning from scratch",
					"error", err.Error())
			}
		}
	}

	// Identical interrupted jobs coalesce at recovery exactly as they
	// would at submit: the first becomes the leader, the rest follow.
	if job.key != "" {
		s.mu.Lock()
		if leader, ok := s.inflight[job.key]; ok {
			job.coalesced = true
			s.indexLocked(job)
			s.mu.Unlock()
			s.reg.Add("jobs.coalesced", 1)
			s.spawnWatch(job)
			s.spawnFollow(job, leader)
			return
		}
		s.inflight[job.key] = job
		s.mu.Unlock()
	}

	job.queuedAt = time.Now()
	// Quota does not apply to re-admission: these jobs were accepted once
	// and admission-before-work says accepted jobs cannot be lost.
	if err := s.fq.Push(job, false); err != nil {
		s.mu.Lock()
		if job.key != "" && s.inflight[job.key] == job {
			delete(s.inflight, job.key)
		}
		s.mu.Unlock()
		s.indexRecovered(terminalJob(id, StateFailed, nil, "queue full at recovery"))
		return
	}
	s.reg.Add("queue.depth", 1)
	s.indexRecovered(job)
	s.reg.Add("jobs.readmitted", 1)
	*readmitted++
	s.spawnWatch(job)
	s.watchQueued(job)
}

// indexRecovered inserts a journal-reconstructed job under its original
// ID.
func (s *Server) indexRecovered(j *Job) {
	s.mu.Lock()
	s.indexLocked(j)
	s.mu.Unlock()
}
