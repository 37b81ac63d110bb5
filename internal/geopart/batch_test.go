package geopart

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// TestGatherSamplePinned pins the sampled (id, coordinate) sequence for
// a fixed distribution: the sample feeds centerpoints, thresholds, and
// strip widths, so a kernel change that silently alters it would shift
// every downstream cut. Any intentional change to the sampling scheme
// must update these literals consciously.
func TestGatherSamplePinned(t *testing.T) {
	want := []int32{0, 8, 16, 24, 4, 12, 20, 28, 32, 40, 48, 56, 36, 44, 52, 60}
	g := gen.Grid2D(8, 8)
	views := embed.SplitCoords(g.G, g.Coords, 4)
	mpi.Run(4, mpi.DefaultModel(), func(c *mpi.Comm) {
		s := gatherSample(c, views[c.Rank()], 16)
		if len(s) != len(want) {
			t.Errorf("rank %d: sample has %d entries, want %d", c.Rank(), len(s), len(want))
			return
		}
		for i, e := range s {
			if e.ID != want[i] {
				t.Errorf("rank %d: sample[%d].ID = %d, want %d", c.Rank(), i, e.ID, want[i])
				return
			}
			if p, ok := views[c.Rank()].PosOf(e.ID); ok && p != e.P {
				t.Errorf("rank %d: sample[%d] carries stale coordinate", c.Rank(), i)
			}
		}
	})
}

// TestGatherSamplePresized checks that the local contribution is built
// without reallocation: capacity len(OwnedIDs)/stride+1 bounds the
// stride-loop count.
func TestGatherSamplePresized(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, per := range []int{1, 5, 4097} {
			stride := n/per + 1
			count := 0
			for i := 0; i < n; i += stride {
				count++
			}
			if capacity := n/stride + 1; count > capacity {
				t.Fatalf("n=%d per=%d: %d entries exceed presized capacity %d", n, per, count, capacity)
			}
		}
	}
}

// TestEdgeCacheResolvesEndpoints cross-checks the edge topology cache
// against the reference resolution (ghost map, owned binary search) on
// every rank of a split view.
func TestEdgeCacheResolvesEndpoints(t *testing.T) {
	g := gen.DelaunayRandom(2000, 3)
	const p = 8
	views := embed.SplitCoords(g.G, g.Coords, p)
	for r := 0; r < p; r++ {
		d := views[r]
		ec := buildEdgeCache(g.G, d)
		nOwn := len(d.OwnedIDs)
		if ec.nOwn != nOwn || ec.nGhost != len(d.GhostIDs) {
			t.Fatalf("rank %d: cache sized %d/%d, want %d/%d", r, ec.nOwn, ec.nGhost, nOwn, len(d.GhostIDs))
		}
		cutEdges := 0
		for i, id := range d.OwnedIDs {
			if got, wantN := ec.start[i+1]-ec.start[i], g.G.XAdj[id+1]-g.G.XAdj[id]; got != wantN {
				t.Fatalf("rank %d vertex %d: %d cached neighbours, want %d", r, id, got, wantN)
			}
			for e := g.G.XAdj[id]; e < g.G.XAdj[id+1]; e++ {
				nb := g.G.Adjncy[e]
				s := ec.slot[int(ec.start[i])+int(e-g.G.XAdj[id])]
				want := int32(-1)
				if li, ok := ownedIndex(d, nb); ok {
					want = li
				} else if gi, ok := d.GhostSlot(nb); ok {
					want = int32(nOwn) + gi
				}
				if s != want {
					t.Fatalf("rank %d edge %d->%d: slot %d, want %d", r, id, nb, s, want)
				}
				if nb > id && want >= 0 {
					cutEdges++
				}
			}
		}
		if len(ec.cutA) != cutEdges || len(ec.cutB) != cutEdges || len(ec.cutW) != cutEdges {
			t.Fatalf("rank %d: cut view has %d/%d/%d edges, want %d", r, len(ec.cutA), len(ec.cutB), len(ec.cutW), cutEdges)
		}
		ec.release()
	}
}

// TestBatchedKernelMatchesLegacy runs evaluateBatched and
// evaluateLegacy on the same candidate set, each in its own world, and
// requires identical reduced (cut, w0, w1) triples, identical sides and
// projection values for every candidate, and identical per-rank clock,
// message, and byte totals after the call.
func TestBatchedKernelMatchesLegacy(t *testing.T) {
	g := gen.DelaunayRandom(4000, 5)
	cfg := DefaultParallelConfig().withDefaults()
	type rankOut struct {
		global   []int64
		sides    []bool
		ownedVal []float64
		ghostVal []float64
		before   mpi.RankSnapshot
		after    mpi.RankSnapshot
	}
	for _, p := range []int{1, 4, 16} {
		views := embed.SplitCoords(g.G, g.Coords, p)
		run := func(kernel func(*mpi.Comm, *graph.Graph, *embed.Distributed, *candSet, func(geometry.Vec2) geometry.Vec2) *evaluated) []rankOut {
			out := make([]rankOut, p)
			mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
				d := views[c.Rank()]
				cs, _, norm := prepareCandidates(c, d, cfg)
				o := &out[c.Rank()]
				o.before = c.Snapshot()
				ev := kernel(c, g.G, d, &cs, norm)
				o.after = c.Snapshot()
				defer ev.release()
				o.global = ev.global
				val := make([]float64, len(d.OwnedIDs))
				ghost := make([]float64, len(d.GhostIDs))
				for k := range cs.dirs {
					for i := range d.OwnedIDs {
						o.sides = append(o.sides, ev.sideOf(k, i))
					}
					ev.fillValOwned(k, val)
					o.ownedVal = append(o.ownedVal, val...)
					ev.fillValGhost(k, ghost)
					o.ghostVal = append(o.ghostVal, ghost...)
				}
			})
			return out
		}
		batched, legacy := run(evaluateBatched), run(evaluateLegacy)
		for r := range batched {
			b, l := batched[r], legacy[r]
			if b.before != l.before {
				t.Fatalf("P=%d rank %d: worlds diverged before the kernel: %+v vs %+v", p, r, b.before, l.before)
			}
			if !slices.Equal(b.global, l.global) {
				t.Fatalf("P=%d rank %d: reduced triples differ:\nbatched %v\nlegacy  %v", p, r, b.global, l.global)
			}
			if b.after != l.after {
				t.Fatalf("P=%d rank %d: counters after the kernel differ: batched %+v, legacy %+v", p, r, b.after, l.after)
			}
			if !slices.Equal(b.sides, l.sides) {
				t.Fatalf("P=%d rank %d: candidate sides differ", p, r)
			}
			if !slices.Equal(b.ownedVal, l.ownedVal) || !slices.Equal(b.ghostVal, l.ghostVal) {
				t.Fatalf("P=%d rank %d: projection values differ", p, r)
			}
		}
	}
}

// TestParallelRCBMatchesRecount checks ParallelRCB against a from-scratch
// recount of the assembled partition: the reported Cut must equal
// graph.CutSize and SideW the summed vertex weights of each side.
func TestParallelRCBMatchesRecount(t *testing.T) {
	g := gen.DelaunayRandom(4000, 5)
	for _, p := range []int{1, 4, 16} {
		views := embed.SplitCoords(g.G, g.Coords, p)
		part := make([]int32, g.G.NumVertices())
		var r0 *ParallelResult
		mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
			res := ParallelRCB(c, g.G, views[c.Rank()])
			for i, id := range res.OwnedIDs {
				part[id] = res.Side[i]
			}
			if c.Rank() == 0 {
				r0 = res
			}
		})
		if want := graph.CutSize(g.G, part); r0.Cut != want || r0.CutBefore != want {
			t.Fatalf("P=%d: Cut %d CutBefore %d, recount %d", p, r0.Cut, r0.CutBefore, want)
		}
		var w [2]int64
		for v, s := range part {
			w[s] += int64(g.G.VertexWeight(int32(v)))
		}
		if r0.SideW != w {
			t.Fatalf("P=%d: SideW %v, recount %v", p, r0.SideW, w)
		}
	}
}

// TestParallelRCBClockGolden pins the shipped RCB clock, the
// Zoltan-faithful cost model (chargeZoltanRCB): rank 0's modeled time
// and communication time on a 64×64 grid must equal, bit for bit, the
// values recorded before the single-scan cost model was retired. No
// BENCH file has an RCB row, so this is the guard that keeps the clock
// behind Figure 4's RCB curve from drifting.
func TestParallelRCBClockGolden(t *testing.T) {
	g := gen.Grid2D(64, 64)
	golden := []struct {
		p              int
		elapsed, commT uint64 // math.Float64bits
	}{
		{1, 0x3f32aee02610a2f5, 0x3efc58c6d8a67ba8},
		{4, 0x3f31d55fd95c8fbd, 0x3f235c0a655c41c9},
		{16, 0x3f3b1a6b9bc46913, 0x3f371a1215d25d59},
	}
	for _, tc := range golden {
		views := embed.SplitCoords(g.G, g.Coords, tc.p)
		var elapsed float64
		stats := mpi.Run(tc.p, mpi.DefaultModel(), func(c *mpi.Comm) {
			ParallelRCB(c, g.G, views[c.Rank()])
			if c.Rank() == 0 {
				elapsed = c.Elapsed()
			}
		})
		if math.Float64bits(elapsed) != tc.elapsed || math.Float64bits(stats[0].CommTime) != tc.commT {
			t.Errorf("P=%d: rank 0 clock (elapsed %v, comm %v) drifted from the recorded (%v, %v)",
				tc.p, elapsed, stats[0].CommTime,
				math.Float64frombits(tc.elapsed), math.Float64frombits(tc.commT))
		}
	}
}

// TestParallelPartitionSteadyStateAllocs guards the batched kernel's
// allocation budget: once the edge-cache and kernel-scratch pools are
// warm, repeated partition calls must not reallocate the projection
// block, the side bitsets, or the topology cache. The bound is
// world-wide per call and leaves headroom for the per-call result,
// sample, and strip structures that are intentionally fresh.
func TestParallelPartitionSteadyStateAllocs(t *testing.T) {
	const (
		p     = 4
		calls = 10
	)
	g := gen.Grid2D(64, 64)
	views := embed.SplitCoords(g.G, g.Coords, p)
	cfg := DefaultParallelConfig()
	var perCall float64
	mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
		for i := 0; i < 3; i++ { // warm pools
			ParallelPartition(c, g.G, views[c.Rank()], cfg)
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < calls; i++ {
			ParallelPartition(c, g.G, views[c.Rank()], cfg)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perCall = float64(m1.Mallocs-m0.Mallocs) / calls
		}
		c.Barrier()
	})
	if perCall > 900 {
		t.Errorf("steady-state ParallelPartition: %.0f mallocs per call (world-wide), want well under 900", perCall)
	}
	t.Logf("steady-state ParallelPartition: %.0f mallocs per call across %d ranks", perCall, p)
}

// benchGeo builds the benchmark workload once per (graph, P).
func benchViews(b *testing.B, p int) (*gen.Generated, []*embed.Distributed) {
	b.Helper()
	g := gen.Grid2D(128, 128)
	return g, embed.SplitCoords(g.G, g.Coords, p)
}

// BenchmarkParallelPartition measures the full SP-PG7-NL bisection
// (simulated world included) at P=4 and P=16.
func BenchmarkParallelPartition(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			g, views := benchViews(b, p)
			cfg := DefaultParallelConfig()
			var cut int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
					res := ParallelPartition(c, g.G, views[c.Rank()], cfg)
					if c.Rank() == 0 {
						cut = res.Cut
					}
				})
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkRCBParallel measures the parallel RCB single cut at P=4 and
// P=16.
func BenchmarkRCBParallel(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			g, views := benchViews(b, p)
			var cut int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
					res := ParallelRCB(c, g.G, views[c.Rank()])
					if c.Rank() == 0 {
						cut = res.Cut
					}
				})
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// TestEdgeCacheRemoteSlot: a view whose ghost ring misses a neighbour
// must skip the edge (slot -1), matching evaluateLegacy's "neither
// owned nor ghost" branch.
func TestEdgeCacheRemoteSlot(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	d := &embed.Distributed{
		OwnedIDs: []int32{0, 1},
		GhostIDs: []int32{}, // vertex 2 is adjacent but not ghosted
	}
	ec := buildEdgeCache(g, d)
	defer ec.release()
	// Vertex 1's neighbour 2 must resolve to -1 and produce no cut edge.
	for _, s := range ec.slot {
		if s >= 2 {
			t.Fatalf("cache resolved a slot %d beyond the view", s)
		}
	}
	if len(ec.cutA) != 1 {
		t.Fatalf("cut view has %d edges, want 1 (0-1 only)", len(ec.cutA))
	}
}

// evaluateLegacy is the per-candidate kernel evaluateBatched replaced,
// kept verbatim as its independent reference: owned and ghost points
// are pre-mapped per centerpoint into materialised []Vec3 arrays, and
// every candidate re-scans the full owned adjacency with a ghost map
// lookup or an owned binary search per edge endpoint.
func evaluateLegacy(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2) *evaluated {
	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	ncand := len(cs.dirs)

	// Pre-map owned and ghost points once per centerpoint.
	mappedOwn := make([][]geometry.Vec3, len(cs.ms))
	mappedGhost := make([][]geometry.Vec3, len(cs.ms))
	for m := range cs.ms {
		mob := cs.ms[m]
		mo := make([]geometry.Vec3, nOwn)
		for i, p := range d.OwnedPos {
			mo[i] = mob.Apply(geometry.StereoUp(norm(p)))
		}
		mg := make([]geometry.Vec3, nGhost)
		for i, p := range d.GhostPos {
			mg[i] = mob.Apply(geometry.StereoUp(norm(p)))
		}
		mappedOwn[m], mappedGhost[m] = mo, mg
		c.Charge(float64(nOwn+nGhost) * 6)
	}

	// Evaluate every candidate locally: cut and side weights.
	ghostSlotOf := make(map[int32]int32, nGhost)
	for i, id := range d.GhostIDs {
		ghostSlotOf[id] = int32(i)
	}
	contrib := make([]int64, 3*ncand)
	sideBuf := make([][]bool, ncand) // per candidate: side of each owned vertex
	cur := graph.GetCursor(g)
	defer cur.Release()
	for k := 0; k < ncand; k++ {
		mobID := cs.mobOf[k]
		u, tVal, tID := cs.dirs[k], cs.tVal[k], cs.tID[k]
		sides := make([]bool, nOwn)
		cut := int64(0)
		var w0, w1 int64
		for i, id := range d.OwnedIDs {
			v := mappedOwn[mobID][i].Dot(u)
			s := valueAbove(v, id, tVal, tID)
			sides[i] = s
			if s {
				w1 += int64(g.VertexWeight(id))
			} else {
				w0 += int64(g.VertexWeight(id))
			}
		}
		for i, id := range d.OwnedIDs {
			nbrs, wgts := cur.Arcs(id)
			for e, nb := range nbrs {
				if nb < id {
					continue // counted by the owner of the smaller id
				}
				var nbSide bool
				if slot, ok := ghostSlotOf[nb]; ok {
					nbSide = valueAbove(mappedGhost[mobID][slot].Dot(u), nb, tVal, tID)
				} else if li, ok2 := ownedIndex(d, nb); ok2 {
					nbSide = sides[li]
				} else {
					continue // neither owned nor ghost: not adjacent here
				}
				if nbSide != sides[i] {
					cut += int64(wgts[e])
				}
			}
		}
		contrib[3*k] = cut
		contrib[3*k+1] = w0
		contrib[3*k+2] = w1
		sideBuf[k] = sides
		c.Charge(float64(nOwn) * 4)
	}
	global := mpi.AllReduceSlice(c, contrib, 8, mpi.SumInt64)

	return &evaluated{
		global: global,
		sideOf: func(k, i int) bool { return sideBuf[k][i] },
		fillValOwned: func(k int, out []float64) {
			for i := range out {
				out[i] = mappedOwn[cs.mobOf[k]][i].Dot(cs.dirs[k])
			}
		},
		fillValGhost: func(k int, out []float64) {
			for i := range out {
				out[i] = mappedGhost[cs.mobOf[k]][i].Dot(cs.dirs[k])
			}
		},
		release: func() {},
	}
}

// ownedIndex binary-searches the local index of an owned vertex; owned
// ids are sorted by construction.
func ownedIndex(d *embed.Distributed, id int32) (int32, bool) {
	lo, hi := 0, len(d.OwnedIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.OwnedIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.OwnedIDs) && d.OwnedIDs[lo] == id {
		return int32(lo), true
	}
	return 0, false
}
