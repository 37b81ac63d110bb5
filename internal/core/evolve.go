// Multi-trial evolutionary search: run the embed+partition tail of the
// pipeline several times with decorrelated RNG streams, keep the two
// best bisections, and combine them by freeing their disagreement
// region under one distributed FM round (geopart.RefineFreeSet). The
// coarse hierarchy is built once and shared — trials differ only in
// the embedding forces and the great-circle candidate draws, which is
// where the paper's pipeline is randomised.
//
// Everything runs inside ONE simulated world, so the modeled clock
// honestly pays for every trial: Trials=4 costs roughly 4× the
// embed+partition time of Trials=1 plus the combine collectives. The
// search is opt-in (Options.Trials > 1) and deterministic — trial
// seeds are derived arithmetically, scores are compared with a total
// order, and the combine operates on globally replicated outcomes — so
// results are bit-identical across workers and replay modes.
package core

import (
	"fmt"

	"repro/internal/coarsen"
	"repro/internal/embed"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// trialSeedStride decorrelates per-trial RNG streams: trial ti adds
// ti·stride to the embedding seed and the great-circle seed. Both
// strides are primes far above any seed arithmetic the packages do
// internally (level offsets, rank offsets).
const (
	embedSeedStride = 1000003
	partSeedStride  = 7919
)

// trialScore is the globally replicated outcome of one trial, ordered
// by the deterministic better() relation below.
type trialScore struct {
	feasible bool // imbalance within the configured tolerance
	cut      int64
	imb      float64
	ti       int
}

// better is a total order on trial scores: feasibility first, then cut,
// then imbalance, then trial index. Every rank computes it from the
// same replicated values, so the winner is globally agreed without
// extra communication.
func (a trialScore) better(b trialScore) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	if a.cut != b.cut {
		return a.cut < b.cut
	}
	if a.imb != b.imb {
		return a.imb < b.imb
	}
	return a.ti < b.ti
}

// partitionEvolve is the Trials > 1 driver behind PartitionChecked.
func partitionEvolve(g *graph.Graph, p int, opt Options) (*Result, error) {
	if opt.Recover.Policy != RecoverOff {
		return nil, fmt.Errorf("core: Trials=%d cannot be combined with recovery policy %v (checkpoint layout assumes one pipeline pass)",
			opt.Trials, opt.Recover.Policy)
	}
	pcfg := opt.Partition.Defaults()
	tol, passes := pcfg.BalanceTol, pcfg.FMPasses
	totalW := g.TotalVertexWeight()

	h := coarsen.BuildHierarchy(g, p, opt.Coarsen)
	boundary := coarsen.BoundaryEdges(h)

	part := make([]int32, g.NumVertices())
	// The runner-up's sides, assembled by global id for the combine:
	// the embedding routes ownership by coordinates, so two trials
	// partition the id space differently and rank-local side vectors do
	// not align element-wise. Each rank writes its (disjoint) owned
	// slots, a barrier orders the writes before cross-rank reads, and
	// the modeled clock is charged for the record exchange.
	secondGlobal := make([]int8, g.NumVertices())
	times := make([]PhaseTimes, p)
	var cut, cutBefore int64
	var imb float64
	var strip int
	stats, err := mpi.RunChecked(p, opt.Model, func(c *mpi.Comm) {
		rank := c.Rank()
		t := &times[rank]

		c.SetPhase("coarsen")
		ph := c.StartPhase()
		coarsen.ChargeCosts(c, h, boundary, opt.CoarsenRounds, 2)
		t.Coarsen, t.CoarsenComm = ph.Stop()

		// Trials: the coarse hierarchy is fixed, so ownership (who holds
		// which vertices) is identical across trials and the side vectors
		// of different trials align element-wise.
		var bestD, secondD *embed.Distributed
		var bestSide, secondSide []int32
		var best, second trialScore
		var bestSideW [2]int64
		var bestRes geopart.ParallelResult
		for ti := 0; ti < opt.Trials; ti++ {
			eopt := opt.Embed
			popt := opt.Partition
			if ti > 0 {
				// Trial 0 runs the configured options verbatim, so the
				// search result can only match or beat the single-trial
				// pipeline; later trials shift both RNG streams.
				eopt.Seed += int64(ti) * embedSeedStride
				popt.Seed += int64(ti) * partSeedStride
			}
			c.SetPhase("embed")
			ph = c.StartPhase()
			d := embed.ParallelEmbed(c, h, eopt)
			te, tc := ph.Stop()
			t.Embed += te
			t.EmbedComm += tc

			c.SetPhase("partition")
			ph = c.StartPhase()
			res := geopart.ParallelPartition(c, g, d, popt)
			tp, tpc := ph.Stop()
			t.Partition += tp
			t.PartitionComm += tpc

			score := trialScore{
				feasible: res.Imbalance <= tol,
				cut:      res.Cut,
				imb:      res.Imbalance,
				ti:       ti,
			}
			sides := append([]int32(nil), res.Side...)
			switch {
			case ti == 0 || score.better(best):
				if ti > 0 {
					second, secondSide, secondD = best, bestSide, bestD
				}
				best, bestSide = score, sides
				bestD, bestSideW = d, res.SideW
				bestRes = *res
			case ti == 1 || score.better(second):
				second, secondSide, secondD = score, sides, d
			}
		}

		// Combine: free the disagreement region of the two best trials
		// and let one distributed FM round walk from the better parent
		// toward (or past) the other. The FM pass keeps the best prefix
		// of its moves, so the child is never worse than the best trial.
		if secondSide != nil {
			c.SetPhase("combine")
			ph = c.StartPhase()
			// Redistribute the runner-up's sides to the winner's owners:
			// one irregular record exchange (id + side per owned vertex),
			// charged like the baseline's ghost-side refreshes. The
			// host-side transport is the shared array plus a barrier.
			for i, id := range secondD.OwnedIDs {
				secondGlobal[id] = int8(secondSide[i])
			}
			c.ChargeComm(4, 6*len(secondD.OwnedIDs))
			c.SyncCost(c.Model().PerPeer * float64(c.Size()))
			c.Barrier() // writes complete before cross-rank reads
			nOwn := len(bestD.OwnedIDs)
			// Bisections are invariant under side relabeling: orient the
			// second parent to the first before diffing, or a mirrored
			// twin would free every vertex.
			var same, diff int64
			side2 := make([]int32, nOwn)
			for i, id := range bestD.OwnedIDs {
				side2[i] = int32(secondGlobal[id])
				if bestSide[i] == side2[i] {
					same++
				} else {
					diff++
				}
			}
			c.Charge(float64(nOwn) * 2)
			agree := mpi.AllReduceSlice(c, []int64{same, diff}, 8, mpi.SumInt64)
			flipSecond := agree[1] > agree[0]
			freeMask := make([]bool, nOwn)
			for i, s := range side2 {
				if flipSecond {
					s = 1 - s
				}
				freeMask[i] = bestSide[i] != s
			}
			out := geopart.RefineFreeSet(c, g, bestD, freeMask, bestSide, bestSideW, totalW, tol, passes)
			best.cut -= out.Gain
			bestSideW = out.SideW
			best.imb = graph.Imbalance2(out.SideW[0], out.SideW[1])
			tp, tpc := ph.Stop()
			t.Partition += tp
			t.PartitionComm += tpc
		}
		t.Total = c.Elapsed()
		t.TotalComm = c.CommElapsed()

		for i, id := range bestD.OwnedIDs {
			part[id] = bestSide[i]
		}
		if rank == 0 {
			cut, cutBefore = best.cut, bestRes.CutBefore
			imb = best.imb
			strip = bestRes.StripSize
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		Part:      part,
		Cut:       cut,
		CutBefore: cutBefore,
		Imbalance: imb,
		StripSize: strip,
		P:         p,
		Times:     maxTimes(times),
		Stats:     stats,
	}, nil
}
