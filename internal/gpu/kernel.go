package gpu

import (
	"fmt"
	"math/bits"

	"gpmetis/internal/fault"
	"gpmetis/internal/obs"
	"gpmetis/internal/perfmodel"
)

// Kernel is the body executed by every logical GPU thread of a launch.
// Launch hands every thread of one launch the same Ctx, reset before each
// lane, so a kernel must not keep c, or anything pointing into it, after
// it returns.
type Kernel func(c *Ctx)

// Ctx is one thread's view of the executing kernel. Kernels call its
// methods to perform *accounted* memory traffic; plain Go slice access in
// the kernel body does the actual data movement. Element indices passed
// to the accounting methods must be non-negative, as in CUDA.
type Ctx struct {
	tid  int
	lane int
	ops  int64
	seq  int
	acct bool
	w    warpState
}

// TID returns the global thread index in [0, nThreads).
func (c *Ctx) TID() int { return c.tid }

// Lane returns the thread's lane within its warp, in [0, WarpSize).
func (c *Ctx) Lane() int { return c.lane }

// Op charges n scalar instructions to the thread.
func (c *Ctx) Op(n int) { c.ops += int64(n) }

// convergeStride is the access-index budget of one converged loop
// iteration (see Converge).
const convergeStride = 192

// Converge marks the start of loop iteration iter of a grid-stride (or
// chunked) loop. SIMT lanes re-converge at the loop head, so accesses in
// the same iteration of different lanes issue as common warp instructions
// and may coalesce; Converge aligns the lanes' access indices to make
// that visible to the cost model. Iterations that perform more than
// convergeStride accounted accesses simply keep counting — alignment is
// then lost for the tail, exactly as divergence would lose it in
// hardware.
func (c *Ctx) Converge(iter int) {
	base := iter * convergeStride
	if base > c.seq {
		c.seq = base
	}
}

// Load charges one global-memory read of element i of array a. Reads by
// other lanes of the same warp at the same per-thread access index that
// hit the same 128-byte segment coalesce into one transaction.
func (c *Ctx) Load(a Array, i int) { c.access(a, i) }

// Store charges one global-memory write, with the same coalescing rule.
func (c *Ctx) Store(a Array, i int) { c.access(a, i) }

// LoadN charges n consecutive reads starting at element i (a thread-local
// sequential scan of a[i:i+n]); consecutive elements within one 128-byte
// segment share a transaction even for a single lane, so the charge is one
// access per spanned segment.
func (c *Ctx) LoadN(a Array, i, n int) {
	c.ops += int64(n)
	if !c.acct || n <= 0 {
		return
	}
	w := &c.w
	w.accesses += int64(n)
	first := (int64(i) * a.elem) >> w.segShift
	last := (int64(i+n)*a.elem - 1) >> w.segShift
	for s := first; s <= last; s++ {
		slot := w.slot(c.seq)
		c.seq++
		slot.addSeg(a.id<<40 | s)
	}
}

// StoreN charges n consecutive writes starting at element i.
func (c *Ctx) StoreN(a Array, i, n int) { c.LoadN(a, i, n) }

// Atomic charges one global atomic read-modify-write on element i of a.
// Atomics by lanes of the same warp on the same element serialize.
func (c *Ctx) Atomic(a Array, i int) {
	c.ops++
	if !c.acct {
		return
	}
	c.w.atomicOps++
	s := c.w.slot(c.seq)
	c.seq++
	s.addAddr(a.id<<40 | int64(i))
}

func (c *Ctx) access(a Array, i int) {
	c.ops++
	if !c.acct {
		return
	}
	w := &c.w
	w.accesses++
	s := w.slot(c.seq)
	c.seq++
	s.addSeg(a.id<<40 | (int64(i)*a.elem)>>w.segShift)
}

// segSlot tracks, for one per-thread access index within one warp, the
// distinct memory segments touched (for coalescing) and the per-address
// atomic multiplicities (for serialization). Each lane adds at most one
// segment to a slot and a warp has at most perfmodel.MaxWarpSize lanes,
// so fixed-size arrays suffice.
type segSlot struct {
	n      int
	atomic bool
	segs   [perfmodel.MaxWarpSize]int64
	count  [perfmodel.MaxWarpSize]int32
}

func (s *segSlot) addSeg(seg int64) {
	// Coalesced lanes hit the segment the previous lane appended, so it
	// is checked first; segments in a slot are distinct, so the order of
	// the checks cannot change which entry matches.
	last := s.n - 1
	if last >= 0 && s.segs[last] == seg {
		s.count[last]++
		return
	}
	for i := 0; i < last; i++ {
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

func (s *segSlot) addAddr(addr int64) {
	s.atomic = true
	s.addSeg(addr)
}

// maxCount returns the largest per-address multiplicity, i.e. the
// serialization depth of a warp-atomic at this access index.
func (s *segSlot) maxCount() int64 {
	var m int32
	for i := 0; i < s.n; i++ {
		if s.count[i] > m {
			m = s.count[i]
		}
	}
	return int64(m)
}

type warpState struct {
	slots     []segSlot
	used      int
	segShift  uint // log2(TransactionBytes): byte offset -> segment
	accesses  int64
	atomicOps int64
}

func (w *warpState) slot(seq int) *segSlot {
	for seq >= w.used {
		if w.used == len(w.slots) {
			w.slots = append(w.slots, segSlot{})
		} else {
			// Entries past n are never read, so a reused slot only
			// needs its header cleared.
			s := &w.slots[w.used]
			s.n, s.atomic = 0, false
		}
		w.used++
	}
	return &w.slots[seq]
}

func (w *warpState) reset() {
	w.used = 0
	w.accesses = 0
	w.atomicOps = 0
}

// segShift checks the GPU geometry the warp model can represent and
// returns log2(TransactionBytes), the shift that maps a byte offset to
// its coalescing segment. TransactionBytes must be a power of two and
// WarpSize in [1, perfmodel.MaxWarpSize], the rules
// perfmodel.Machine.Validate enforces; any other machine panics.
func segShift(g *perfmodel.GPUParams) uint {
	if tb := g.TransactionBytes; tb <= 0 || tb&(tb-1) != 0 {
		panic(fmt.Sprintf("gpu: TransactionBytes %d is not a positive power of two", tb))
	}
	if g.WarpSize < 1 || g.WarpSize > perfmodel.MaxWarpSize {
		panic(fmt.Sprintf("gpu: WarpSize %d outside [1, %d]", g.WarpSize, perfmodel.MaxWarpSize))
	}
	return uint(bits.TrailingZeros(uint(g.TransactionBytes)))
}

// Launch executes kernel k for nThreads logical threads, charges the
// modeled kernel duration to the device's timeline under the given name,
// and returns that duration in seconds.
//
// Execution order is deterministic: warps run in increasing warp index,
// lanes in increasing lane order. Lock-free kernels that race in CUDA
// (e.g. the paper's matching kernel) see one fixed interleaving here; the
// conflicts the paper's second "resolve" kernel exists for still occur
// because they are inherent to the algorithm, not to timing.
func (d *Device) Launch(name string, nThreads int, k Kernel) float64 {
	if nThreads < 0 {
		panic(fmt.Sprintf("gpu: Launch(%q, %d): negative thread count", name, nThreads))
	}
	if d.inj != nil {
		// A failed launch wastes one launch overhead before the retry.
		d.preflight(fault.SiteKernel, name, perfmodel.LocGPU, d.m.GPU.LaunchSec)
	}
	ws := d.m.GPU.WarpSize
	// One Ctx, and the warp state inside it, serves every thread of the
	// launch (see Kernel): no per-thread allocation.
	c := &Ctx{acct: d.Accounting}
	c.w.segShift = segShift(&d.m.GPU)
	w := &c.w
	var warpInstr, laneInstr, transactions, atomicSerial, accesses, atomicOps int64
	var maxWarpInstr int64

	for base := 0; base < nThreads; base += ws {
		w.reset()
		var warpMaxOps int64
		for lane := 0; lane < ws && base+lane < nThreads; lane++ {
			c.tid, c.lane, c.ops, c.seq = base+lane, lane, 0, 0
			k(c)
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

// kernelSeconds converts one launch's charged work into modeled time:
// launch overhead plus a roofline max of
//
//	compute:  warp-instructions * WarpSize lanes / device lane throughput
//	memory:   transactions * 128B / device bandwidth
//	latency:  per-warp transaction latency divided by the warp slots
//	          available to hide it
//
// plus serialized atomic time, floored by the critical path of the
// longest single warp (a nearly-empty launch cannot finish faster than
// its slowest warp).
func (d *Device) kernelSeconds(nThreads int, warpInstr, maxWarpInstr, transactions, atomicSerial int64) float64 {
	g := d.m.GPU
	laneThroughput := float64(g.SMs) * float64(g.CoresPerSM) * g.ClockHz
	compute := float64(warpInstr) * float64(g.WarpSize) / laneThroughput
	memory := float64(transactions) * float64(g.TransactionBytes) / g.MemBytesPerSec
	hiding := float64(g.SMs * g.WarpSlotsPerSM)
	latency := float64(transactions) * g.MemLatencySec / hiding
	body := compute
	if memory > body {
		body = memory
	}
	if latency > body {
		body = latency
	}
	// Critical path of the slowest warp: instructions at one per cycle.
	if crit := float64(maxWarpInstr) / g.ClockHz; crit > body {
		body = crit
	}
	return g.LaunchSec + body + float64(atomicSerial)*g.AtomicSec/float64(g.SMs)
}
