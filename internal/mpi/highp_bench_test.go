package mpi

import (
	"fmt"
	"testing"

	"repro/internal/hostpar"
)

// High-P collective benchmarks. The embedding replay issues an
// AllReduce (and several barriers) per iteration per level, so at
// P = 1024 the host cost of one collective rendezvous is the gate on
// the headline scale-8 sweep. These benchmarks sweep P over the suite's
// upper range and hostpar workers over the chunked fan-in's pool sizes;
// the scaling acceptance bar is sub-quadratic cost in P (P=1024 at most
// ~8x the P=256 per-op cost, against ~16x for a quadratic engine) with
// zero steady-state allocations (TestCollectiveSteadyStateAllocs pins
// the latter exactly).
//
// The per-op figure is the wall cost of one world-wide collective: all
// P ranks contribute, one rank combines in rank-index order, and every
// rank observes the result.

// benchWorldLoop runs body's b.N-iteration loop inside one world,
// excluding world spin-up/teardown from the timed window.
func benchWorldLoop(b *testing.B, p int, loop func(c *Comm, n int)) {
	b.Helper()
	b.ReportAllocs()
	Run(p, DefaultModel(), func(c *Comm) {
		c.Barrier() // warm the collective path before the timer starts
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		loop(c, b.N)
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
}

// BenchmarkAllReduceHighP measures one float64 AllReduce per op across
// the full communicator.
func BenchmarkAllReduceHighP(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("P%d/workers%d", p, workers), func(b *testing.B) {
				defer hostpar.SetWorkers(hostpar.SetWorkers(workers))
				benchWorldLoop(b, p, func(c *Comm, n int) {
					acc := float64(c.Rank())
					for i := 0; i < n; i++ {
						acc = AllReduce(c, acc*0.5, 8, SumFloat64)
					}
				})
			})
		}
	}
}

// BenchmarkBarrierHighP measures one full-communicator barrier per op.
func BenchmarkBarrierHighP(b *testing.B) {
	for _, p := range []int{64, 256, 1024} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("P%d/workers%d", p, workers), func(b *testing.B) {
				defer hostpar.SetWorkers(hostpar.SetWorkers(workers))
				benchWorldLoop(b, p, func(c *Comm, n int) {
					for i := 0; i < n; i++ {
						c.Barrier()
					}
				})
			})
		}
	}
}

// BenchmarkWorldSpinUp measures the cost of bringing a P-rank world up
// and tearing it down again with no communication at all — the rank
// arena's target. B/op here is the allocation bill for P ranks' state
// (mailboxes, pending queues, Comms, stacks aside).
func BenchmarkWorldSpinUp(b *testing.B) {
	for _, p := range []int{256, 1024} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Run(p, DefaultModel(), func(c *Comm) {})
			}
		})
	}
}
