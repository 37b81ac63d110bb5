package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
)

// requireSameOutcome fails unless got matches want exactly: cut,
// per-vertex partition, and every rank's virtual clocks and traffic.
func requireSameOutcome(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if got.Cut != want.Cut {
		t.Errorf("%s: cut differs: got %d want %d", tag, got.Cut, want.Cut)
	}
	if len(got.Part) != len(want.Part) {
		t.Fatalf("%s: partition length differs: %d vs %d", tag, len(got.Part), len(want.Part))
	}
	for v := range got.Part {
		if got.Part[v] != want.Part[v] {
			t.Fatalf("%s: vertex %d assigned to part %d, want %d", tag, v, got.Part[v], want.Part[v])
		}
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: stats length differs: %d vs %d", tag, len(got.Stats), len(want.Stats))
	}
	for r := range got.Stats {
		a, b := got.Stats[r], want.Stats[r]
		if a.Time != b.Time || a.CommTime != b.CommTime {
			t.Errorf("%s rank %d clocks differ: got (%v, %v) want (%v, %v)",
				tag, r, a.Time, a.CommTime, b.Time, b.CommTime)
		}
		if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
			t.Errorf("%s rank %d traffic differs: got (%d msg, %d B) want (%d msg, %d B)",
				tag, r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
		}
	}
}

// TestHierarchyBitIdentical runs the full pipeline with the fork-join
// coarsening kernels (parallel contraction, parallel CSR builder,
// chunked map inversion) at several worker counts and requires the
// outcome of a one-worker run at every world size: same cut, same
// per-vertex partition, same per-rank virtual clocks and message
// traffic. Host parallelism is a rearrangement of the same arithmetic
// over statically assigned chunks; any visible difference means a
// kernel changed an evaluation order or a modeled charge. The
// kernel-level comparison against the serial contraction and builder
// is coarsen's TestBuildHierarchyBitIdenticalAcrossWorkers.
func TestHierarchyBitIdentical(t *testing.T) {
	// Large enough that hierarchy construction crosses the parallel size
	// gates (contract >= 2048 verts, builder >= 4096 records) on the
	// finer levels without any test-hook gate lowering.
	g := gen.Grid2D(96, 96)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			ref := Partition(g.G, p, DefaultOptions(42))
			for _, w := range []int{2, 8} {
				hostpar.SetWorkers(w)
				got := Partition(g.G, p, DefaultOptions(42))
				requireSameOutcome(t, fmt.Sprintf("workers %d", w), got, ref)
			}
		})
	}
}
