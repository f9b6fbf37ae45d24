package gpu

import (
	"fmt"
	"testing"

	"gpmetis/internal/perfmodel"
)

// BenchmarkLaunchStreaming measures simulator throughput for a perfectly
// coalesced streaming kernel (the cmap.init pattern).
func BenchmarkLaunchStreaming(b *testing.B) {
	d, _ := newBenchDevice()
	const n = 1 << 16
	a, err := d.Malloc(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]int, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Launch("stream", n, func(c *Ctx) {
			c.Load(a, c.TID())
			data[c.TID()]++
			c.Op(1)
			c.Store(a, c.TID())
		})
	}
	b.ReportMetric(float64(d.Stats().Transactions)/float64(b.N), "tx/launch")
}

// BenchmarkLaunchGather measures the scattered-gather pattern (the
// matching kernel's match[u] reads).
func BenchmarkLaunchGather(b *testing.B) {
	d, _ := newBenchDevice()
	const n = 1 << 16
	a, err := d.Malloc(n, 4)
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = (i * 40503) % n
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Launch("gather", n, func(c *Ctx) {
			c.Load(a, idx[c.TID()])
		})
	}
}

// BenchmarkInclusiveScan measures the CUB-style device scan at several
// sizes.
func BenchmarkInclusiveScan(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, _ := newBenchDevice()
			a, err := d.Malloc(n, 4)
			if err != nil {
				b.Fatal(err)
			}
			data := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range data {
					data[j] = 1
				}
				if got, err := d.InclusiveScan("scan", data, a); err != nil || got != n {
					b.Fatalf("scan total = %d, err = %v, want %d", got, err, n)
				}
			}
		})
	}
}

func newBenchDevice() (*Device, *perfmodel.Timeline) {
	tl := &perfmodel.Timeline{}
	return NewDevice(perfmodel.Default(), tl), tl
}
