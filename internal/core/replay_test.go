package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// TestReplayModesBitIdentical is the host-performance contract of the
// runtime: the host-parallel embedding kernels and the batched
// rank-stepping scheduler may only change host wall clocks, so the full
// pipeline must produce
// bit-identical cuts, partitions, virtual clocks, and message traffic
// across worker counts 1/2/8 and both replay modes — including batched
// worlds where simulated P far exceeds the worker batch. The reference
// is one worker under goroutine-per-rank replay.
func TestReplayModesBitIdentical(t *testing.T) {
	g := gen.Grid2D(96, 96)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			defer mpi.SetReplayMode(mpi.SetReplayMode(mpi.ReplayGoroutine))
			ref := Partition(g.G, p, DefaultOptions(42))
			for _, mode := range []mpi.ReplayMode{mpi.ReplayGoroutine, mpi.ReplayBatched} {
				mpi.SetReplayMode(mode)
				for _, w := range []int{1, 2, 8} {
					if mode == mpi.ReplayGoroutine && w == 1 {
						continue // the reference itself
					}
					hostpar.SetWorkers(w)
					got := Partition(g.G, p, DefaultOptions(42))
					requireSameOutcome(t, fmt.Sprintf("replay=%s workers=%d", mode, w), got, ref)
				}
			}
		})
	}
}
