package gpu

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gpmetis/internal/perfmodel"
)

// threadCtx is the accounting surface a kernel sees, implemented by both
// *Ctx and the reference *refCtx, so one kernel body runs through both
// launch implementations.
type threadCtx interface {
	TID() int
	Lane() int
	Op(n int)
	Converge(iter int)
	Load(a Array, i int)
	Store(a Array, i int)
	LoadN(a Array, i, n int)
	StoreN(a Array, i, n int)
	Atomic(a Array, i int)
}

type body func(c threadCtx)

// kernelGen builds one randomized kernel over arrays of size elements.
type kernelGen func(r *rand.Rand, arrs []Array, size int) body

// accessOp draws one accounted operation at element index(tid).
func accessOp(r *rand.Rand, arrs []Array, index func(tid int) int) body {
	a := arrs[r.Intn(len(arrs))]
	switch r.Intn(3) {
	case 0:
		return func(c threadCtx) { c.Load(a, index(c.TID())) }
	case 1:
		return func(c threadCtx) { c.Store(a, index(c.TID())) }
	default:
		return func(c threadCtx) { c.Atomic(a, index(c.TID())) }
	}
}

// steps runs 1..max operations drawn by op, with some scalar work and
// lane-dependent skips (divergence) between them.
func steps(r *rand.Rand, max int, op func() body) body {
	ops := make([]body, 1+r.Intn(max))
	for i := range ops {
		f := op()
		work := r.Intn(4)
		if skip := r.Intn(4); skip > 1 {
			ops[i] = func(c threadCtx) {
				if c.TID()%skip != 0 {
					c.Op(work)
					f(c)
				}
			}
			continue
		}
		ops[i] = func(c threadCtx) {
			c.Op(work)
			f(c)
		}
	}
	return func(c threadCtx) {
		for _, f := range ops {
			f(c)
		}
	}
}

type namedKernel struct {
	name string
	gen  kernelGen
}

// accessKernels are straight-line kernels, one per access pattern.
var accessKernels = []namedKernel{
	{"streaming", func(r *rand.Rand, arrs []Array, size int) body {
		return steps(r, 6, func() body {
			off := r.Intn(size)
			return accessOp(r, arrs, func(tid int) int { return (off + tid) % size })
		})
	}},
	{"gather", func(r *rand.Rand, arrs []Array, size int) body {
		return steps(r, 6, func() body {
			perm := r.Perm(size)
			return accessOp(r, arrs, func(tid int) int { return perm[tid%size] })
		})
	}},
	{"strided", func(r *rand.Rand, arrs []Array, size int) body {
		return steps(r, 6, func() body {
			stride, off := 1+r.Intn(80), r.Intn(size)
			return accessOp(r, arrs, func(tid int) int { return (off + tid*stride) % size })
		})
	}},
	{"hot-atomics", func(r *rand.Rand, arrs []Array, size int) body {
		return steps(r, 6, func() body {
			// A handful of addresses, or enough that a slot holds many
			// before the lanes start repeating them.
			hot := make([]int, []int{1 + r.Intn(5), 9 + r.Intn(12)}[r.Intn(2)])
			for i := range hot {
				hot[i] = r.Intn(size)
			}
			a := arrs[r.Intn(len(arrs))]
			return func(c threadCtx) { c.Atomic(a, hot[c.TID()%len(hot)]) }
		})
	}},
	{"loadn-boundaries", func(r *rand.Rand, arrs []Array, size int) body {
		return steps(r, 4, func() body {
			a := arrs[r.Intn(len(arrs))]
			spread, maxN := 1+r.Intn(size/2), r.Intn(300)
			store := r.Intn(2) == 0
			return func(c threadCtx) {
				tid := c.TID()
				i := (tid * 7919) % spread
				n := (tid * 31) % (maxN + 1)
				if store {
					c.StoreN(a, i, n)
				} else {
					c.LoadN(a, i, n)
				}
			}
		})
	}},
}

// accountingKernels adds grid-stride loops over the access patterns:
// lanes run different iteration counts, may skip iterations (gaps in the
// access index), and an iteration may outgrow convergeStride.
var accountingKernels = append(accessKernels[:len(accessKernels):len(accessKernels)], namedKernel{
	"converge-gaps", func(r *rand.Rand, arrs []Array, size int) body {
		inner := accessKernels[r.Intn(len(accessKernels))].gen(r, arrs, size)
		first, spread, skip := r.Intn(3), 1+r.Intn(5), 1+r.Intn(3)
		return func(c threadCtx) {
			iters := c.TID() % (spread + 1)
			for it := first; it < first+iters; it += skip {
				c.Converge(it)
				inner(c)
			}
		}
	},
})

// TestLaunchMatchesReference runs randomized kernels through Launch and
// through refLaunch, the implementation it replaced, and requires equal
// Stats and bit-equal modeled seconds for every launch. Each case draws
// machines with every power-of-two transaction size from 32 to 256 bytes
// and warps of 1 to 32 lanes, arrays of 1- to 12-byte elements, thread
// counts that leave a partial last warp, and launches with Accounting
// off.
func TestLaunchMatchesReference(t *testing.T) {
	for ki, kc := range accountingKernels {
		t.Run(kc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ki + 1)))
			for trial := 0; trial < 40; trial++ {
				m := perfmodel.Default()
				m.GPU.TransactionBytes = 32 << r.Intn(4)
				m.GPU.WarpSize = []int{32, 32, 16, 7, 1}[r.Intn(5)]
				acct := r.Intn(6) != 0
				var tlNew, tlRef perfmodel.Timeline
				dNew, dRef := NewDevice(m, &tlNew), NewDevice(m, &tlRef)
				dNew.Accounting, dRef.Accounting = acct, acct

				size := 64 + r.Intn(4096)
				var arrs []Array
				for _, elem := range []int{1, 4, 8, 12} {
					a, err := dNew.Malloc(size, elem)
					if err != nil {
						t.Fatal(err)
					}
					if b, err := dRef.Malloc(size, elem); err != nil || b != a {
						t.Fatalf("reference device allocated %v (%v), want %v", b, err, a)
					}
					arrs = append(arrs, a)
				}
				for launch := 0; launch < 3; launch++ {
					threads := r.Intn(700)
					k := kc.gen(r, arrs, size)
					name := fmt.Sprintf("trial%d.launch%d", trial, launch)
					got := dNew.Launch(name, threads, func(c *Ctx) { k(c) })
					want := dRef.refLaunch(name, threads, func(c *refCtx) { k(c) })
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s (threads=%d, tx=%dB, warp=%d, acct=%v): seconds %v, reference %v",
							name, threads, m.GPU.TransactionBytes, m.GPU.WarpSize, acct, got, want)
					}
				}
				if got, want := dNew.Stats(), dRef.Stats(); got != want {
					t.Fatalf("trial %d (tx=%dB, warp=%d, acct=%v): stats\n%+v\nreference\n%+v",
						trial, m.GPU.TransactionBytes, m.GPU.WarpSize, acct, got, want)
				}
				if math.Float64bits(tlNew.Total()) != math.Float64bits(tlRef.Total()) {
					t.Fatalf("trial %d: timeline %v, reference %v", trial, tlNew.Total(), tlRef.Total())
				}
			}
		})
	}
}

// TestLaunchAllocationsFlat pins the per-launch allocation count: the
// Ctx and warp state are allocated once per launch, not once per thread,
// so 64k threads cost no more allocations than 1k.
func TestLaunchAllocationsFlat(t *testing.T) {
	d := NewDevice(perfmodel.Default(), &perfmodel.Timeline{})
	a, err := d.Malloc(1<<16, 4)
	if err != nil {
		t.Fatal(err)
	}
	perm := rand.New(rand.NewSource(1)).Perm(1 << 16)
	k := func(c *Ctx) {
		c.Load(a, c.TID())
		c.Atomic(a, perm[c.TID()])
		c.Op(1)
		c.Store(a, c.TID())
	}
	for _, n := range []int{1 << 10, 1 << 16} {
		allocs := testing.AllocsPerRun(5, func() { d.Launch("alloc", n, k) })
		if allocs > 8 {
			t.Errorf("Launch of %d threads: %v allocations, want <= 8", n, allocs)
		}
	}
}

// TestNewDeviceRejectsUnmodeledGeometry checks that a machine the warp
// model cannot account panics at NewDevice instead of miscounting.
func TestNewDeviceRejectsUnmodeledGeometry(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(g *perfmodel.GPUParams)
	}{
		{"transaction not a power of two", func(g *perfmodel.GPUParams) { g.TransactionBytes = 96 }},
		{"zero transaction", func(g *perfmodel.GPUParams) { g.TransactionBytes = 0 }},
		{"warp wider than the model", func(g *perfmodel.GPUParams) { g.WarpSize = 64 }},
		{"zero warp", func(g *perfmodel.GPUParams) { g.WarpSize = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := perfmodel.Default()
			tc.edit(&m.GPU)
			defer func() {
				if recover() == nil {
					t.Error("NewDevice did not panic")
				}
			}()
			NewDevice(m, &perfmodel.Timeline{})
		})
	}
}
