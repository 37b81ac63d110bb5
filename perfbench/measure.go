package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/stats"
)

// runCall drives one partition call through the library's public entry
// point at its defaults.
func runCall(c call, seed int64) (*core.Result, error) {
	switch c.kind {
	case geometric:
		return core.PartitionGeometricChecked(c.in.g, c.coords, c.p, geopart.DefaultParallelConfig(), mpi.DefaultModel())
	case rcb:
		return core.RCBParallelChecked(c.in.g, c.coords, c.p, mpi.DefaultModel())
	default:
		return core.PartitionChecked(c.in.g, c.p, core.DefaultOptions(seed))
	}
}

// checkCall is the output check every call passes: no error, no
// sequential fallback, the bisection invariants of core.CheckResult,
// and for coordinate-only calls an independent cut recount.
func checkCall(c call, res *core.Result, err error) error {
	if err != nil {
		return err
	}
	if res.Fallback {
		return errors.New("result came from the sequential fallback")
	}
	if err := core.CheckResult(c.in.g, res); err != nil {
		return err
	}
	if c.kind != fullPipeline {
		if cut := graph.CutSize(c.in.g, res.Part); cut != res.Cut {
			return fmt.Errorf("reported cut %d, graph.CutSize gives %d", res.Cut, cut)
		}
	}
	return nil
}

// digest hashes the (cut, imbalance, modeled time) triple of a result,
// bit for bit, so two runs with one seed compare exactly.
func digest(res *core.Result) uint64 {
	h := fnv.New64a()
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(res.Cut))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(res.Imbalance))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(res.Times.Total))
	h.Write(b[:])
	return h.Sum64()
}

// loopStats accumulates the untraced closed loop.
type loopStats struct {
	attempted, failed int
	timedRounds       int         // timed rounds begun; the last may stop part-way at the budget
	walls, cpus       [][]float64 // per call of the round, one sample per timed round; failed calls too
	edges             []float64   // per call of the round
	modeled           []float64   // warm-up round, calls that passed their check
	maxImbalance      float64
}

// closedLoop runs one untimed warm-up round, then timed rounds of calls,
// one caller, each call starting after the previous one returns. A
// timed call starts only while budget has not elapsed since the first
// timed call, but the first timed round always completes. The warm-up
// round prints a digest line per call; every timed call must reproduce
// its warm-up call's digest exactly.
func closedLoop(out io.Writer, calls []call, seed int64, budget time.Duration) loopStats {
	st := loopStats{walls: make([][]float64, len(calls)), cpus: make([][]float64, len(calls)), edges: make([]float64, len(calls))}
	first := make([]uint64, len(calls))
	run := fnv.New64a()
	// one runs call i of round r (0 is the warm-up) and returns its host
	// wall and CPU seconds.
	one := func(i, r int) (wall, cpu float64) {
		c := calls[i]
		// Collect the previous call's garbage outside the timed region,
		// so a call neither pays for it nor inherits its heap; this is
		// what makes VmHWM repeat for one seed.
		runtime.GC()
		cpu0 := cpuSeconds()
		t0 := time.Now()
		res, err := runCall(c, seed)
		wall = time.Since(t0).Seconds()
		cpu = cpuSeconds() - cpu0
		st.attempted++

		err = checkCall(c, res, err)
		if err == nil {
			d := digest(res)
			if r == 0 {
				first[i] = d
				binary.Write(run, binary.LittleEndian, d)
				hwm, _ := peakRSSBytes() // diagnostic only; the metric is read in the traced run
				fmt.Fprintf(out, "call %-18s wall=%.3fs hwm=%dMB cut=%d imbalance=%.17g modeled_s=%.17g digest=%016x\n",
					c.label, wall, hwm>>20, res.Cut, res.Imbalance, res.Times.Total, d)
				st.modeled = append(st.modeled, res.Times.Total)
			} else if d != first[i] {
				err = fmt.Errorf("digest %016x differs from the warm-up round's %016x", d, first[i])
			}
		}
		if err != nil {
			st.failed++
			fmt.Fprintf(out, "FAIL %s (round %d): %v\n", c.label, r, err)
			return
		}
		st.maxImbalance = math.Max(st.maxImbalance, res.Imbalance)
		return
	}

	// The warm-up round grows the heap to its peak and faults in the
	// process's memory, so no timed call pays for that first touch.
	for i, c := range calls {
		one(i, 0)
		st.edges[i] = float64(c.in.g.NumEdges())
	}
	start := time.Now()
	for r := 1; ; r++ {
		var roundWall, roundCPU float64
		for i := range calls {
			if r > 1 && time.Since(start) >= budget {
				fmt.Fprintf(out, "run digest %016x over %d calls of the warm-up round\n", run.Sum64(), len(calls))
				return st
			}
			if i == 0 {
				st.timedRounds++
			}
			wall, cpu := one(i, r)
			st.walls[i] = append(st.walls[i], wall)
			st.cpus[i] = append(st.cpus[i], cpu)
			roundWall += wall
			roundCPU += cpu
		}
		fmt.Fprintf(out, "round %d at %.1fs: wall=%.3fs cpu=%.3fs\n", r, time.Since(start).Seconds(), roundWall, roundCPU)
	}
}

// endToEnd turns the untraced loop and set-up into the end-to-end
// metrics. Every timing is a median over the timed rounds, taken per
// call of the round.
func endToEnd(out io.Writer, st loopStats, passes []setupPass) metrics {
	totals := make([]float64, len(passes))
	for i, p := range passes {
		totals[i] = p.total
	}
	// A round mixes calls whose walls differ tenfold (P=64 and P=1024,
	// small and large graphs); a median over the pooled calls falls in
	// the gap between those groups and jumps. Each call's median over the
	// rounds, combined by geometric mean, weighs every call of the round
	// once.
	wall := make([]float64, len(st.walls))
	var roundWall, roundCPU, roundEdges float64
	for i := range st.walls {
		wall[i] = stats.Median(st.walls[i])
		roundWall += wall[i]
		roundCPU += stats.Median(st.cpus[i])
		roundEdges += st.edges[i]
	}
	timed := 0
	for _, w := range st.walls {
		timed += len(w)
	}
	okShare := float64(st.attempted-st.failed) / float64(st.attempted)
	fmt.Fprintf(out, "calls attempted=%d failed=%d failed_share=%.4g, warm-up round + %d timed rounds (%d timed calls, %d per round), set-up passes=%.3f s\n",
		st.attempted, st.failed, 1-okShare, st.timedRounds, timed, len(st.walls), totals)
	m := metrics{}
	m.add("setup_s", stats.Median(totals), "s")
	m.add("partition_wall_s.p50", stats.GeoMean(wall), "s")
	m.add("edges_per_s", roundEdges/roundWall, "edges/s")
	m.add("cpu_s", roundCPU, "s")
	m.add("modeled_s.geomean", stats.GeoMean(st.modeled), "s")
	m.add("balance.max", 1+st.maxImbalance, "ratio")
	m.add("ok_share", okShare, "share")
	return m
}
