package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hostpar"
)

// TestCompressedPipelineBitIdentical runs the full pipeline on the
// plain CSR graph and on its delta/varint compressed representation
// (graph.Compress) at every world size and several worker counts, and
// requires bit-identical outcomes: same cut, same per-vertex partition,
// same per-rank virtual clocks and message traffic. The compressed
// path replaces raw Adjncy/EWgt indexing with Cursor decode — a
// rearrangement of the same reads, never of the arithmetic — so any
// visible difference means a decoder produced a different row or a
// kernel charged a different modeled cost. (This is the same contract
// TestHierarchyBitIdentical pins for the fork-join kernels.)
func TestCompressedPipelineBitIdentical(t *testing.T) {
	// Large enough that the hierarchy crosses the parallel size gates on
	// the finer levels, matching the hierarchy guard's regime.
	g := gen.Grid2D(96, 96)
	cg := graph.Compress(g.G)
	if !cg.Compressed() || g.G.Compressed() {
		t.Fatal("Compress must wrap without mutating the plain graph")
	}
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			plain := Partition(g.G, p, DefaultOptions(42))
			for _, w := range []int{1, 2, 8} {
				defer hostpar.SetWorkers(hostpar.SetWorkers(w))
				comp := Partition(cg, p, DefaultOptions(42))
				if comp.Cut != plain.Cut {
					t.Errorf("workers %d: cut differs: compressed %d plain %d", w, comp.Cut, plain.Cut)
				}
				if comp.Imbalance != plain.Imbalance {
					t.Errorf("workers %d: imbalance differs: compressed %v plain %v", w, comp.Imbalance, plain.Imbalance)
				}
				if len(comp.Part) != len(plain.Part) {
					t.Fatalf("workers %d: partition length differs: %d vs %d", w, len(comp.Part), len(plain.Part))
				}
				for v := range comp.Part {
					if comp.Part[v] != plain.Part[v] {
						t.Fatalf("workers %d: vertex %d assigned to part %d compressed, %d plain",
							w, v, comp.Part[v], plain.Part[v])
					}
				}
				if len(comp.Stats) != len(plain.Stats) {
					t.Fatalf("workers %d: stats length differs: %d vs %d", w, len(comp.Stats), len(plain.Stats))
				}
				for r := range comp.Stats {
					a, b := comp.Stats[r], plain.Stats[r]
					if a.Time != b.Time || a.CommTime != b.CommTime {
						t.Errorf("workers %d rank %d clocks differ: compressed (%v, %v) plain (%v, %v)",
							w, r, a.Time, a.CommTime, b.Time, b.CommTime)
					}
					if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
						t.Errorf("workers %d rank %d traffic differs: compressed (%d msg, %d B) plain (%d msg, %d B)",
							w, r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
					}
				}
			}
		})
	}
}
