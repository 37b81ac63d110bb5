package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// TestHighPEnginesBitIdentical pins the collective engine over the full
// pipeline at the suite's upper communicator sizes, where the fan-in
// chunked scan and the pending-ring growth paths actually engage. The
// allocation-free word path that typed collectives take by default and
// the boxed fan-in path are two implementations of one rendezvous, so
// cuts, partitions, virtual clocks, and message traffic must be
// bit-identical between them under both replay modes. A non-nil empty
// fault plan forces the boxed path (wordsEligible reads only plan
// presence) and fires nothing. The reference is the word path under
// goroutine-per-rank replay.
func TestHighPEnginesBitIdentical(t *testing.T) {
	cases := []struct {
		p    int
		side int
	}{
		{1, 96}, {4, 96}, {16, 96}, {64, 96}, {256, 160}, {1024, 256},
	}
	for _, tc := range cases {
		if tc.p > 64 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("P%d", tc.p), func(t *testing.T) {
			g := gen.Grid2D(tc.side, tc.side)
			defer mpi.SetReplayMode(mpi.SetReplayMode(mpi.ReplayGoroutine))
			ref := Partition(g.G, tc.p, DefaultOptions(42))
			boxed := DefaultOptions(42)
			boxed.Model.Faults = mpi.NewFaultPlan()
			for _, mode := range []mpi.ReplayMode{mpi.ReplayGoroutine, mpi.ReplayBatched} {
				mpi.SetReplayMode(mode)
				got := Partition(g.G, tc.p, boxed)
				requireSameOutcome(t, fmt.Sprintf("boxed replay=%s", mode), got, ref)
			}
		})
	}
}
