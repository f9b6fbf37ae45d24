package main

import (
	"errors"
	"testing"
	"time"
)

// smallPool generates n distinct small inputs routed to t's only node.
func smallPool(t *testing.T, tg *target, n int) []*input {
	t.Helper()
	ins, err := genInputs(n, 1, 9, 4, partUB, func(int) shape { return shape{"hugebubble", 600} }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		in.Entry = tg.members[0].base
	}
	return ins
}

func TestClosedLoopChecksEveryReply(t *testing.T) {
	tg, err := bootSingle(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	ins := smallPool(t, tg, 12)
	e := &env{t: tg, limit: len(ins), at: func(i int) *input { return ins[i] }, miss: func(int) bool { return true }}
	misses := newMissLog()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	l := closedLoop(hc, e.at, 0, e.limit, 8, time.Millisecond, false, e.verifier(misses))
	if l.attempted != 8 || l.completed != 8 || l.failed != 0 || len(l.latencies) != 8 {
		t.Fatalf("attempted %d completed %d failed %d; want 8 8 0", l.attempted, l.completed, l.failed)
	}
	if checked, fails := misses.check(); checked != 8 || len(fails) != 0 {
		t.Fatalf("checked %d, failures %v", checked, fails)
	}

	// Resubmitting a computed graph is a hit, which the miss verifier
	// must count as a failed operation, not drop.
	l = closedLoop(hc, e.at, 6, e.limit, 4, time.Millisecond, true, e.verifier(misses))
	if l.attempted != 4 || l.failed != 2 || l.completed != 2 || l.spans == 0 {
		t.Fatalf("attempted %d completed %d failed %d spans %d; want 4 2 2 >0", l.attempted, l.completed, l.failed, l.spans)
	}
}

func TestClosedLoopCountsCheckFailures(t *testing.T) {
	tg, err := bootSingle(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tg.close()
	ins := smallPool(t, tg, 4)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	bad := errors.New("wrong answer")
	l := closedLoop(hc, func(i int) *input { return ins[i] }, 0, len(ins), 4, time.Millisecond, false,
		func(i int, _ *input, _ *reply) error {
			if i%2 == 1 {
				return bad
			}
			return nil
		})
	if l.attempted != 4 || l.failed != 2 || l.completed != 2 || len(l.failures) != 2 {
		t.Fatalf("attempted %d completed %d failed %d; want 4 2 2", l.attempted, l.completed, l.failed)
	}
}
