package mpi

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geometry"
)

// collProbe is everything one rank observed from the mixed collective
// body below: every reduction flavour the pipeline uses (word-path
// types and boxed types), gathers, an AllToAllV, a Bcast, a
// sub-communicator reduction, and the rank's final RankStats.
type collProbe struct {
	sum   float64
	mx    float64
	vec   geometry.Vec2
	arr   [3]float64
	i64   int64
	i     int
	str   string // boxed path: concatenation is order-sensitive
	gath  []float64
	gathV []int32
	a2a   []int32
	bcast int
	sub   float64
	stats RankStats
}

// collBody exercises the full collective surface with order-sensitive
// payloads (float sums pick up different rounding under any other
// combine order, string concat under any other rank order).
func collBody(p int, model Model) []collProbe {
	probes := make([]collProbe, p)
	stats := Run(p, model, func(c *Comm) {
		r := c.Rank()
		pr := &probes[r]
		pr.sum = AllReduce(c, collSumTerm(r), 8, SumFloat64)
		pr.mx = AllReduce(c, math.Sin(float64(r)), 8, MaxFloat64)
		pr.vec = AllReduce(c, geometry.Vec2{X: 0.3 * float64(r), Y: -0.7 / float64(r+1)}, 16,
			func(a, b geometry.Vec2) geometry.Vec2 { return geometry.Vec2{X: a.X + b.X, Y: a.Y + b.Y} })
		pr.arr = AllReduce(c, [3]float64{float64(r), 1.0 / float64(r+1), math.Cos(float64(r))}, 24,
			func(a, b [3]float64) [3]float64 { return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]} })
		pr.i64 = Reduce(c, int64(r*r+1), 8, SumInt64)
		pr.i = AllReduce(c, r+1, 8, func(a, b int) int { return a ^ (b * 31) })
		pr.str = AllReduce(c, fmt.Sprintf("%x", r%16), 1, func(a, b string) string { return a + b })
		c.Barrier()
		pr.gath = AllGather(c, float64(r)*1.5, 8)
		pr.gathV = Concat(AllGatherV(c, make([]int32, r%3+1), 4))
		dest := make([][]int32, p)
		for d := 0; d < p; d++ {
			if (r+d)%3 == 0 && d != r {
				dest[d] = []int32{int32(r), int32(d)}
			}
		}
		for src, got := range AllToAllV(c, dest, 4) {
			if src != r && len(got) > 0 {
				pr.a2a = append(pr.a2a, got...)
			}
		}
		pr.bcast = c.Bcast(p/2, r*3, 8).(int)
		if sub := c.SubComm((p + 1) / 2); sub != nil {
			pr.sub = AllReduce(sub, 1.0/float64(r+2), 8, SumFloat64)
		}
		c.Barrier()
	})
	for r := range probes {
		probes[r].stats = stats[r]
	}
	return probes
}

// collSumTerm is rank r's contribution to collBody's float sum.
func collSumTerm(r int) float64 { return 0.1*float64(r) + 1e-12*float64(r*r) }

// TestCollectiveWordPathMatchesBoxed is the collective bit-identity
// contract: the allocation-free word path (taken by default) must
// reproduce the boxed fan-in path exactly — results compared through
// Float64bits, clocks and traffic through RankStats — at every
// communicator size the suite sweeps, up to P = 1024. A non-nil empty
// fault plan forces the boxed path (wordsEligible reads only plan
// presence) and fires nothing. The sum is also checked against a
// serial rank-order left fold, an oracle independent of the engine.
func TestCollectiveWordPathMatchesBoxed(t *testing.T) {
	for _, p := range []int{1, 4, 64, 256, 1024} {
		if p > 64 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			boxedModel := DefaultModel()
			boxedModel.Faults = NewFaultPlan()
			want := collBody(p, boxedModel)
			got := collBody(p, DefaultModel())
			fold := collSumTerm(0)
			for r := 1; r < p; r++ {
				fold += collSumTerm(r)
			}
			for r := range want {
				w, g := want[r], got[r]
				if math.Float64bits(g.sum) != math.Float64bits(fold) {
					t.Fatalf("rank %d sum %v differs from the serial rank-order fold %v", r, g.sum, fold)
				}
				if math.Float64bits(w.sum) != math.Float64bits(g.sum) ||
					math.Float64bits(w.mx) != math.Float64bits(g.mx) ||
					math.Float64bits(w.sub) != math.Float64bits(g.sub) {
					t.Fatalf("rank %d float reductions differ: boxed (%v,%v,%v) word (%v,%v,%v)",
						r, w.sum, w.mx, w.sub, g.sum, g.mx, g.sub)
				}
				if w.vec != g.vec || w.arr != g.arr || w.i64 != g.i64 || w.i != g.i ||
					w.str != g.str || w.bcast != g.bcast {
					t.Fatalf("rank %d reductions differ:\n boxed %+v\n word  %+v", r, w, g)
				}
				if !reflect.DeepEqual(w.gath, g.gath) || !reflect.DeepEqual(w.gathV, g.gathV) ||
					!reflect.DeepEqual(w.a2a, g.a2a) {
					t.Fatalf("rank %d gathers differ:\n boxed %+v\n word  %+v", r, w, g)
				}
				if w.stats != g.stats {
					t.Fatalf("rank %d stats differ:\n boxed %+v\n word  %+v", r, w.stats, g.stats)
				}
			}
		})
	}
}

// TestDeepPendingSamePeerOrder pins the mailbox contract the ring
// rewrite must preserve: messages from the same peer are received in
// send order even when a deep backlog of them is parked in the pending
// ring (routed there by an out-of-order receive) and further messages
// keep arriving in the mailbox while the backlog drains.
func TestDeepPendingSamePeerOrder(t *testing.T) {
	const n = 200 // far beyond the initial ring capacity: forces growth
	Run(3, DefaultModel(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(1, i, 8)
			}
			c.Barrier()
			for i := n; i < 2*n; i++ {
				c.Send(1, i, 8)
			}
		case 2:
			c.Barrier()
			c.Send(1, "go", 8)
		case 1:
			c.Barrier()
			// Receiving from rank 2 first drains the whole mailbox —
			// rank 0's backlog is routed into its pending ring.
			if got := c.Recv(2); got != "go" {
				t.Errorf("rank 1: expected signal from rank 2, got %v", got)
			}
			// The second batch from rank 0 lands in the mailbox while the
			// first drains from pending; order must still be global send
			// order.
			for i := 0; i < 2*n; i++ {
				if got := c.Recv(0).(int); got != i {
					t.Fatalf("rank 1: message %d arrived as %d (reordered)", i, got)
				}
			}
		}
	})
}

// TestCollectiveSteadyStateAllocs pins the fan-in engine's headline
// property: after warm-up, collectives allocate nothing — on any rank,
// not just the caller's. A rendezvous that boxes one contribution per
// rank per collective (P allocations per op) fails the threshold below
// by two orders of magnitude.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	const p, ops = 64, 400
	var m0, m1 runtime.MemStats
	Run(p, DefaultModel(), func(c *Comm) {
		acc := float64(c.Rank())
		for i := 0; i < 4; i++ { // warm the rendezvous and the word path
			acc = AllReduce(c, acc*0.5, 8, SumFloat64)
			c.Barrier()
		}
		c.Barrier()
		if c.Rank() == 0 {
			// Peers are parked in the barrier below: quiescent.
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < ops; i++ {
			acc = AllReduce(c, acc*0.5, 8, SumFloat64)
			c.Barrier()
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
		}
		c.Barrier()
	})
	allocs := m1.Mallocs - m0.Mallocs
	// 2·ops collectives over 64 ranks would be ≥ 51200 boxed
	// allocations; the fan-in engine's budget is runtime noise.
	if allocs > 200 {
		t.Fatalf("steady-state collectives allocated %d times over %d ops (want ~0)", allocs, 2*ops)
	}
}
