package gpu

import (
	"fmt"

	"gpmetis/internal/fault"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// This file keeps the warp-accounting code Launch replaced: one heap
// Ctx per logical thread, a 64-bit divide per access, a linear segSlot
// scan and a whole-struct slot reset. It is the oracle the differential
// test in accounting_test.go runs randomized kernels against; only the
// identifiers are renamed (ref prefix) so both live in one package.

type refCtx struct {
	tid  int
	lane int
	ops  int64
	seq  int
	w    *refWarpState
	acct bool
}

func (c *refCtx) TID() int { return c.tid }

func (c *refCtx) Lane() int { return c.lane }

func (c *refCtx) Op(n int) { c.ops += int64(n) }

func (c *refCtx) Converge(iter int) {
	base := iter * convergeStride
	if base > c.seq {
		c.seq = base
	}
}

func (c *refCtx) Load(a Array, i int) { c.access(a, i) }

func (c *refCtx) Store(a Array, i int) { c.access(a, i) }

func (c *refCtx) LoadN(a Array, i, n int) {
	c.ops += int64(n)
	if !c.acct || n <= 0 {
		return
	}
	c.w.accesses += int64(n)
	segBytes := int64(c.w.segBytes)
	first := int64(i) * a.elem / segBytes
	last := (int64(i+n)*a.elem - 1) / segBytes
	for s := first; s <= last; s++ {
		slot := c.w.slot(c.seq)
		c.seq++
		slot.addSeg(a.id<<40 | s)
	}
}

func (c *refCtx) StoreN(a Array, i, n int) { c.LoadN(a, i, n) }

func (c *refCtx) Atomic(a Array, i int) {
	c.ops++
	if !c.acct {
		return
	}
	c.w.atomicOps++
	addr := a.id<<40 | int64(i)
	s := c.w.slot(c.seq)
	c.seq++
	s.addAddr(addr)
}

func (c *refCtx) access(a Array, i int) {
	c.ops++
	if !c.acct {
		return
	}
	c.w.accesses++
	seg := a.id<<40 | int64(i)*a.elem/int64(c.w.segBytes)
	s := c.w.slot(c.seq)
	c.seq++
	s.addSeg(seg)
}

type refSegSlot struct {
	n      int
	atomic bool
	segs   [32]int64
	count  [32]int32
}

func (s *refSegSlot) addSeg(seg int64) {
	for i := 0; i < s.n; i++ {
		if s.segs[i] == seg {
			s.count[i]++
			return
		}
	}
	if s.n < len(s.segs) {
		s.segs[s.n] = seg
		s.count[s.n] = 1
		s.n++
	}
}

func (s *refSegSlot) addAddr(addr int64) {
	s.atomic = true
	s.addSeg(addr)
}

func (s *refSegSlot) maxCount() int64 {
	var m int32
	for i := 0; i < s.n; i++ {
		if s.count[i] > m {
			m = s.count[i]
		}
	}
	return int64(m)
}

type refWarpState struct {
	slots     []refSegSlot
	used      int
	segBytes  int
	accesses  int64
	atomicOps int64
}

func (w *refWarpState) slot(seq int) *refSegSlot {
	for seq >= w.used {
		if w.used == len(w.slots) {
			w.slots = append(w.slots, refSegSlot{})
		} else {
			w.slots[w.used] = refSegSlot{}
		}
		w.used++
	}
	return &w.slots[seq]
}

func (w *refWarpState) reset() {
	w.used = 0
	w.accesses = 0
	w.atomicOps = 0
}

func (d *Device) refLaunch(name string, nThreads int, k func(c *refCtx)) float64 {
	if nThreads < 0 {
		panic(fmt.Sprintf("gpu: Launch(%q, %d): negative thread count", name, nThreads))
	}
	if d.inj != nil {
		// A failed launch wastes one launch overhead before the retry.
		d.preflight(fault.SiteKernel, name, perfmodel.LocGPU, d.m.GPU.LaunchSec)
	}
	ws := d.m.GPU.WarpSize
	w := refWarpState{segBytes: d.m.GPU.TransactionBytes}
	var warpInstr, laneInstr, transactions, atomicSerial, accesses, atomicOps int64
	var maxWarpInstr int64

	for base := 0; base < nThreads; base += ws {
		w.reset()
		var warpMaxOps int64
		for lane := 0; lane < ws && base+lane < nThreads; lane++ {
			c := refCtx{tid: base + lane, lane: lane, w: &w, acct: d.Accounting}
			k(&c)
			laneInstr += c.ops
			if c.ops > warpMaxOps {
				warpMaxOps = c.ops
			}
		}
		warpInstr += warpMaxOps
		if warpMaxOps > maxWarpInstr {
			maxWarpInstr = warpMaxOps
		}
		for i := 0; i < w.used; i++ {
			s := &w.slots[i]
			transactions += int64(s.n)
			// Only atomics serialize on address conflicts; coalesced
			// loads sharing a segment are the fast path.
			if s.atomic {
				if mc := s.maxCount(); mc > 1 {
					atomicSerial += mc
				}
			}
		}
		accesses += w.accesses
		atomicOps += w.atomicOps
	}

	sec := d.kernelSeconds(nThreads, warpInstr, maxWarpInstr, transactions, atomicSerial)
	if d.sink == nil {
		d.tl.Append(name, perfmodel.LocGPU, sec)
	} else {
		// Per-launch span with this launch's stats delta, so every level
		// of the trace attributes its own kernel work.
		sp := d.sink.Leaf(name, d.tl.Total(), sec,
			obs.Str("loc", perfmodel.LocGPU.String()),
			obs.Int("threads", int64(nThreads)),
			obs.Int("warp_instructions", warpInstr),
			obs.Int("lane_instructions", laneInstr),
			obs.Int("transactions", transactions),
			obs.Int("accesses", accesses),
			obs.Int("atomic_ops", atomicOps),
			obs.Int("atomic_serial", atomicSerial))
		var id int64
		if sp != nil {
			id = sp.ID
		}
		d.tl.AppendTagged(name, perfmodel.LocGPU, sec, id)
	}

	d.stats.Kernels++
	d.stats.Threads += int64(nThreads)
	d.stats.WarpInstructions += warpInstr
	d.stats.LaneInstructions += laneInstr
	d.stats.Transactions += transactions
	d.stats.Accesses += accesses
	d.stats.AtomicOps += atomicOps
	d.stats.AtomicSerial += atomicSerial
	if d.launchObs != nil {
		d.launchObs.ObserveLaunch(name, nThreads, sec, Stats{
			Kernels:          1,
			Threads:          int64(nThreads),
			WarpInstructions: warpInstr,
			LaneInstructions: laneInstr,
			Transactions:     transactions,
			Accesses:         accesses,
			AtomicOps:        atomicOps,
			AtomicSerial:     atomicSerial,
		})
	}
	return sec
}
