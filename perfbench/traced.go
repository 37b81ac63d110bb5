package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/coarsen"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/mpi"
	"repro/internal/quadtree"
	"repro/internal/stats"
	"repro/internal/trace"
)

// layer is a module whose public calls the traced world times.
type layer int

const (
	lCoarsen layer = iota // coarsen.ChargeCosts
	lEmbed                // embed.ParallelEmbed
	lGeopart              // geopart.ParallelPartition or geopart.ParallelRCB (strip refinement inside)
	lRefine               // modeled only: the refine phase inside the geopart call
	nLayers
)

// layerOf attributes a recorded phase name to its layer. Every phase the
// composed world can open must appear here: an unknown phase fails the
// traced-run guard instead of silently dropping out of the sum.
func layerOf(phase string) (layer, bool) {
	switch {
	case phase == "coarsen" || strings.HasPrefix(phase, "coarsen/"):
		return lCoarsen, true
	case phase == "embed" || strings.HasPrefix(phase, "embed/"):
		return lEmbed, true
	case phase == "partition" || phase == "geopart" || phase == "rcb":
		return lGeopart, true
	case phase == "refine" || phase == "refine-full":
		return lRefine, true
	}
	return 0, false
}

// hostSpan is one rank's entry to and exit from one layer call.
type hostSpan struct{ in, out time.Time }

// coverageMin is the share of the traced worlds' host wall, over a
// round, that the layer intervals must cover; the rest is rank spin-up
// and teardown.
const coverageMin = 0.9

// tracedCall is the outcome of one composed, traced call.
type tracedCall struct {
	res       *core.Result
	wall      float64 // host seconds of the whole call, as the untraced call is timed
	hierarchy float64 // host seconds of coarsen.BuildHierarchy + BoundaryEdges
	levels    int
	world     float64          // host seconds of mpi.RunChecked
	host      [nLayers]float64 // every rank inside the layer call until the last exits
	covered   float64          // sum of the layer intervals, host seconds
	rec       *trace.Recorder
	views     []*embed.Distributed // finest embedding (full pipeline only)
}

// runTraced composes the call from the same public layer calls
// core.runAttempt (or core.PartitionGeometricChecked and
// core.RCBParallelChecked) makes, in one world with Model.Trace set.
func runTraced(c call, seed int64) (*tracedCall, error) {
	opt := core.DefaultOptions(seed)
	rounds := opt.CoarsenRounds
	if rounds == 0 {
		rounds = 4 // core.PartitionChecked's default
	}
	model := opt.Model
	if c.kind != fullPipeline {
		model = mpi.DefaultModel()
	}
	tc := &tracedCall{rec: trace.New()}
	model.Trace = tc.rec

	start := time.Now()
	var h *coarsen.Hierarchy
	var boundary [][]int64
	var split []*embed.Distributed
	if c.kind == fullPipeline {
		h = coarsen.BuildHierarchy(c.in.g, c.p, opt.Coarsen)
		boundary = coarsen.BoundaryEdges(h)
		tc.hierarchy = time.Since(start).Seconds()
		tc.levels = len(h.Levels)
		tc.views = make([]*embed.Distributed, c.p)
	} else {
		split = embed.SplitCoords(c.in.g, c.coords, c.p)
	}

	n := c.in.g.NumVertices()
	part := make([]int32, n)
	clocks := make([]float64, c.p)
	spans := make([][nLayers]hostSpan, c.p)
	var pres *geopart.ParallelResult
	w0 := time.Now()
	stats, err := mpi.RunChecked(c.p, model, func(cm *mpi.Comm) {
		rank := cm.Rank()
		sp := &spans[rank]
		var d *embed.Distributed
		if c.kind == fullPipeline {
			cm.SetPhase("coarsen")
			sp[lCoarsen].in = time.Now()
			coarsen.ChargeCosts(cm, h, boundary, rounds, 2)
			sp[lCoarsen].out = time.Now()

			cm.SetPhase("embed")
			sp[lEmbed].in = time.Now()
			d = embed.ParallelEmbed(cm, h, opt.Embed)
			sp[lEmbed].out = time.Now()
			tc.views[rank] = d
		} else {
			d = split[rank]
		}
		var res *geopart.ParallelResult
		if c.kind == rcb {
			cm.SetPhase("rcb")
			sp[lGeopart].in = time.Now()
			res = geopart.ParallelRCB(cm, c.in.g, d)
		} else {
			cm.SetPhase("partition")
			sp[lGeopart].in = time.Now()
			res = geopart.ParallelPartition(cm, c.in.g, d, opt.Partition)
		}
		sp[lGeopart].out = time.Now()
		clocks[rank] = cm.Elapsed()
		for i, id := range res.OwnedIDs {
			part[id] = res.Side[i]
		}
		if rank == 0 {
			pres = res
		}
	})
	end := time.Now()
	tc.world = end.Sub(w0).Seconds()
	tc.wall = end.Sub(start).Seconds()
	if err != nil {
		return nil, err
	}
	tc.res = &core.Result{
		Part: part, Cut: pres.Cut, CutBefore: pres.CutBefore, Imbalance: pres.Imbalance,
		StripSize: pres.StripSize, P: c.p, Stats: stats,
		Times: core.PhaseTimes{Total: slices.Max(clocks)},
	}
	if c.kind == rcb {
		tc.res.CutBefore, tc.res.StripSize = pres.Cut, 0
	}

	// A layer's host time runs from the moment every rank has entered it
	// to the last rank's exit. Ranks that finish a layer early (those the
	// VertsPerRank cap leaves idle in the embedding) enter the next call
	// and wait there for the stragglers; counting from the first entry
	// would charge that wait to both layers. With this rule the layer
	// intervals tile the world between spin-up and teardown.
	for l := range tc.host {
		var lastIn, lastOut time.Time
		for r := range spans {
			s := spans[r][l]
			if s.in.IsZero() {
				break // the call does not enter this layer
			}
			if s.in.After(lastIn) {
				lastIn = s.in
			}
			if s.out.After(lastOut) {
				lastOut = s.out
			}
		}
		if !lastIn.IsZero() {
			tc.host[l] = lastOut.Sub(lastIn).Seconds()
			tc.covered += tc.host[l]
		}
	}
	return tc, nil
}

// guard is the traced-run guard: the composed world must reproduce the
// untraced call bit for bit and pass the runtime invariants.
func guard(c call, untraced *core.Result, tc *tracedCall) error {
	u, t := untraced, tc.res
	if u.Cut != t.Cut || u.CutBefore != t.CutBefore || u.Imbalance != t.Imbalance ||
		u.StripSize != t.StripSize || u.Times.Total != t.Times.Total {
		return fmt.Errorf("traced world diverged: cut %d/%d, cut before %d/%d, imbalance %v/%v, strip %d/%d, modeled %v/%v (untraced/traced)",
			u.Cut, t.Cut, u.CutBefore, t.CutBefore, u.Imbalance, t.Imbalance, u.StripSize, t.StripSize, u.Times.Total, t.Times.Total)
	}
	if !slices.Equal(u.Part, t.Part) {
		return errors.New("traced world diverged: bisections differ")
	}
	return tc.rec.CheckInvariants()
}

// modeledLayers splits the critical rank's clock into per-layer
// comp/comm/wait. The critical rank is the one whose final clock is the
// modeled total; its phase spans tile that clock, so the layers sum to
// Result.Times.Total. Neither the Breakdown's aggregate rows (max over
// ranks per phase) nor sums of per-phase maxima are used: those
// double-count.
type modeledLayers struct {
	time, comp, comm, wait [nLayers]float64
	colls                  [nLayers]int64 // critical rank's collectives
	// Summed over every rank: point-to-point message events (a message
	// counts at its sender and its receiver) and the modeled payload
	// bytes of every communication event.
	msgs, bytes [nLayers]int64
	// Every communication event of the world, any layer: message events
	// plus one per rank taking part in a collective.
	events int64
	// The critical rank's final clock and the part of it spent in or
	// waiting on communication.
	critTime, critComm float64
}

func (m *modeledLayers) add(o modeledLayers) {
	for l := range m.time {
		m.time[l] += o.time[l]
		m.comp[l] += o.comp[l]
		m.comm[l] += o.comm[l]
		m.wait[l] += o.wait[l]
		m.colls[l] += o.colls[l]
		m.msgs[l] += o.msgs[l]
		m.bytes[l] += o.bytes[l]
	}
	m.events += o.events
	m.critTime += o.critTime
	m.critComm += o.critComm
}

func splitModeled(tc *tracedCall) (modeledLayers, error) {
	var ml modeledLayers
	b := tc.rec.Breakdown()
	crit := 0
	for r, s := range tc.res.Stats {
		if s.Time > tc.res.Stats[crit].Time {
			crit = r
		}
	}
	ml.critTime, ml.critComm = tc.res.Stats[crit].Time, tc.res.Stats[crit].CommTime
	for r, phases := range b.Ranks {
		for _, pc := range phases {
			l, ok := layerOf(pc.Phase)
			if !ok {
				if pc.Time == 0 && pc.Bytes == 0 && pc.Msgs == 0 && pc.Colls == 0 {
					continue // empty span before the first SetPhase
				}
				return ml, fmt.Errorf("rank %d: phase %q belongs to no layer", r, pc.Phase)
			}
			ml.msgs[l] += pc.Msgs
			ml.bytes[l] += pc.Bytes
			ml.events += pc.Msgs + pc.Colls
			if r != crit {
				continue
			}
			ml.time[l] += pc.Time
			ml.comp[l] += pc.Comp
			ml.comm[l] += pc.Comm
			ml.wait[l] += pc.Wait
			ml.colls[l] += pc.Colls
		}
	}
	sum := 0.0
	for _, t := range ml.time {
		sum += t
	}
	// The spans tile the clock; summing them re-associates the
	// telescoping differences, which can move the last bits only.
	if total := tc.res.Times.Total; math.Abs(sum-total) > 1e-12*total {
		return ml, fmt.Errorf("critical rank %d: layer times sum to %.17g, modeled total is %.17g", crit, sum, total)
	}
	return ml, nil
}

// layerTotals accumulates the traced round.
type layerTotals struct {
	peakRSS                    int64   // VmHWM after the untraced round, bytes
	cutGeomean                 float64 // over the untraced round
	host                       [nLayers]float64
	spHost, rcbHost, hierarchy float64
	levels, embedCalls         int
	ml                         modeledLayers
	cutBefore, cutAfter        float64 // refining calls
	strip, refinedN            float64
	tracedWall, untracedWall   float64
	world, covered             float64              // traced worlds' host wall, and the part inside layer calls
	embedding                  []*embed.Distributed // finest embedding of the round's first full-pipeline call
	embedN                     int
}

// tracedRound runs one round untraced, then each call again composed
// and traced, applies the guard to every pair, and returns the per-layer
// totals. Any guard failure aborts the traced run. The untraced round
// comes first so that the process's VmHWM read between the two is the
// untraced calls' peak, free of recorder memory.
func tracedRound(out io.Writer, calls []call, seed int64) (*layerTotals, int, error) {
	lt := &layerTotals{}
	untraced := make([]*core.Result, len(calls))
	walls := make([]float64, len(calls))
	cuts := make([]float64, len(calls))
	for i, c := range calls {
		runtime.GC() // as in the closed loop
		t0 := time.Now()
		res, err := runCall(c, seed)
		walls[i] = time.Since(t0).Seconds()
		if err := checkCall(c, res, err); err != nil {
			return nil, i + 1, fmt.Errorf("%s: %w", c.label, err)
		}
		untraced[i], cuts[i] = res, float64(res.Cut)
	}
	rss, err := peakRSSBytes()
	if err != nil {
		return nil, len(calls), err
	}
	lt.peakRSS, lt.cutGeomean = rss, stats.GeoMean(cuts)

	for i, c := range calls {
		runtime.GC()
		tc, err := runTraced(c, seed)
		if err != nil {
			return nil, len(calls), fmt.Errorf("%s traced: %w", c.label, err)
		}
		if err := guard(c, untraced[i], tc); err != nil {
			return nil, len(calls), fmt.Errorf("%s: %w", c.label, err)
		}
		untraced[i] = nil
		lt.untracedWall += walls[i]
		ml, err := splitModeled(tc)
		if err != nil {
			return nil, len(calls), fmt.Errorf("%s: %w", c.label, err)
		}
		fmt.Fprintf(out, "traced %-18s world=%.3fs coarsen=%.3fs embed=%.3fs geopart=%.3fs covered=%.3f modeled=%.17g digest=%016x\n",
			c.label, tc.world, tc.host[lCoarsen], tc.host[lEmbed], tc.host[lGeopart], tc.covered/tc.world, tc.res.Times.Total, digest(tc.res))

		lt.tracedWall += tc.wall
		lt.world += tc.world
		lt.covered += tc.covered
		lt.ml.add(ml)
		for l := range lt.host {
			lt.host[l] += tc.host[l]
		}
		switch c.kind {
		case rcb:
			lt.rcbHost += tc.host[lGeopart]
		default:
			lt.spHost += tc.host[lGeopart]
			lt.cutBefore += float64(tc.res.CutBefore)
			lt.cutAfter += float64(tc.res.Cut)
			lt.strip += float64(tc.res.StripSize)
			lt.refinedN += float64(c.in.g.NumVertices())
		}
		if c.kind == fullPipeline {
			lt.hierarchy += tc.hierarchy
			lt.levels += tc.levels
			lt.embedCalls++
			if lt.embedding == nil {
				lt.embedding, lt.embedN = tc.views, c.in.g.NumVertices()
			}
		}
	}
	if share := lt.covered / lt.world; share < coverageMin {
		return nil, len(calls), fmt.Errorf("layer intervals cover %.3f of the traced worlds' %.3fs host wall, want >= %.2f",
			share, lt.world, coverageMin)
	}
	return lt, len(calls), nil
}

// quadtreeProbe builds one Barnes–Hut tree over a finest-level
// embedding of n vertices and sweeps every point through it at the
// embed layer's opening criterion.
func quadtreeProbe(views []*embed.Distributed, n int) (build, walkNsPerPoint, clustersPerPoint float64) {
	pts := make([]geometry.Vec2, n)
	for _, d := range views {
		for i, id := range d.OwnedIDs {
			pts[id] = d.OwnedPos[i]
		}
	}
	const theta = 0.9 // embed's opening criterion (lattice.go, hostpar.go)
	builds := make([]float64, 3)
	var tree *quadtree.Tree
	for i := range builds {
		t := time.Now()
		tree = quadtree.Build(pts, nil)
		builds[i] = time.Since(t).Seconds()
	}
	visits := 0
	visit := func(geometry.Vec2, float64, int32) { visits++ }
	t := time.Now()
	for i, p := range pts {
		tree.ForEachCluster(p, int32(i), theta, visit)
	}
	sweep := time.Since(t)
	return stats.Median(builds), float64(sweep.Nanoseconds()) / float64(n), float64(visits) / float64(n)
}

// mpiProbe times the runtime at P ranks: world spin-up (a body that is a
// single Barrier) and the per-operation host wall of AllReduce and
// AllToAllV loops (each rank sends one element to its successor; the
// count exchange makes the operation O(P) per rank). Each is the median
// of a few repetitions.
func mpiProbe(p int) (spinup, allreduceUs, alltoallvUs float64, err error) {
	const reps, arIters, a2aIters = 3, 100, 10
	model := mpi.DefaultModel()
	spins := make([]float64, reps)
	ars := make([]float64, reps)
	a2as := make([]float64, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if _, err := mpi.RunChecked(p, model, func(c *mpi.Comm) { c.Barrier() }); err != nil {
			return 0, 0, 0, fmt.Errorf("spin-up: %w", err)
		}
		spins[i] = time.Since(t).Seconds()

		loop := func(iters int, op func(c *mpi.Comm)) (float64, error) {
			var per float64
			_, err := mpi.RunChecked(p, model, func(c *mpi.Comm) {
				c.Barrier()
				t := time.Now()
				for k := 0; k < iters; k++ {
					op(c)
				}
				c.Barrier()
				if c.Rank() == 0 {
					per = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(iters)
				}
			})
			return per, err
		}
		if ars[i], err = loop(arIters, func(c *mpi.Comm) {
			mpi.AllReduce(c, int64(c.Rank()), 8, mpi.SumInt64)
		}); err != nil {
			return 0, 0, 0, fmt.Errorf("allreduce: %w", err)
		}
		if a2as[i], err = loop(a2aIters, func(c *mpi.Comm) {
			dest := make([][]int64, c.Size())
			dest[(c.Rank()+1)%c.Size()] = []int64{int64(c.Rank())}
			mpi.AllToAllV(c, dest, 8)
		}); err != nil {
			return 0, 0, 0, fmt.Errorf("alltoallv: %w", err)
		}
	}
	return stats.Median(spins), stats.Median(ars), stats.Median(a2as), nil
}

// perLayer runs the traced round and the probes and returns every
// per-layer metric.
func perLayer(out io.Writer, calls []call, sp setupPass, seed int64, probeP int) (metrics, int, error) {
	lt, attempted, err := tracedRound(out, calls, seed)
	if err != nil {
		return nil, attempted, err
	}
	m := metrics{}
	m.add("cut.geomean", lt.cutGeomean, "edges")
	m.add("peak_rss_mb", float64(lt.peakRSS)/1e6, "MB")
	m.add("gen.build_s", sp.gen, "s")
	m.add("graph.write_metis_s", sp.write, "s")
	m.add("graph.read_metis_s", sp.read, "s")
	m.add("graph.read_metis_mb_per_s", float64(sp.metisBytes)/1e6/sp.read, "MB/s")

	levels := 0.0
	if lt.embedCalls > 0 {
		levels = float64(lt.levels) / float64(lt.embedCalls)
	}
	m.add("coarsen.hierarchy_s", lt.hierarchy, "s")
	m.add("coarsen.levels", levels, "count")
	m.add("coarsen.modeled_comp_s", lt.ml.comp[lCoarsen], "s")
	m.add("coarsen.modeled_comm_s", lt.ml.comm[lCoarsen], "s")

	m.add("embed.wall_s", lt.host[lEmbed], "s")
	m.add("embed.modeled_comp_s", lt.ml.comp[lEmbed], "s")
	m.add("embed.modeled_comm_s", lt.ml.comm[lEmbed], "s")
	m.add("embed.modeled_wait_s", lt.ml.wait[lEmbed], "s")
	m.add("embed.msgs", float64(lt.ml.msgs[lEmbed]), "count")
	m.add("embed.bytes", float64(lt.ml.bytes[lEmbed]), "bytes")

	var qBuild, qWalk, qClusters float64
	if lt.embedding != nil {
		qBuild, qWalk, qClusters = quadtreeProbe(lt.embedding, lt.embedN)
	}
	m.add("quadtree.build_s", qBuild, "s")
	m.add("quadtree.walk_ns_per_point", qWalk, "ns")
	m.add("quadtree.clusters_per_point", qClusters, "count")

	m.add("geopart.wall_s", lt.host[lGeopart], "s")
	m.add("geopart.sp_wall_s", lt.spHost, "s")
	m.add("geopart.rcb_wall_s", lt.rcbHost, "s")
	m.add("geopart.modeled_comp_s", lt.ml.comp[lGeopart], "s")
	m.add("geopart.modeled_comm_s", lt.ml.comm[lGeopart], "s")
	m.add("geopart.colls", float64(lt.ml.colls[lGeopart]), "count")

	m.add("refine.modeled_s", lt.ml.time[lRefine], "s")
	m.add("refine.cut_reduction", (lt.cutBefore-lt.cutAfter)/lt.cutBefore, "share")
	m.add("refine.strip_share", lt.strip/lt.refinedN, "share")

	spin, ar, a2a, err := mpiProbe(probeP)
	if err != nil {
		return nil, attempted, err
	}
	m.add("mpi.spinup_s", spin, "s")
	m.add("mpi.allreduce_us", ar, "us")
	m.add("mpi.alltoallv_us", a2a, "us")
	var bytes int64
	for _, b := range lt.ml.bytes {
		bytes += b
	}
	m.add("mpi.msgs", float64(lt.ml.events), "count")
	m.add("mpi.bytes", float64(bytes), "bytes")
	m.add("mpi.comm_share", lt.ml.critComm/lt.ml.critTime, "share")

	m.add("trace.overhead_share", (lt.tracedWall-lt.untracedWall)/lt.untracedWall, "share")
	return m, attempted, nil
}
