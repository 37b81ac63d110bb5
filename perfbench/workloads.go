package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
)

// callKind selects the public entry point one partition call drives.
type callKind int

const (
	fullPipeline callKind = iota // core.PartitionChecked: coarsen, embed, partition
	geometric                    // core.PartitionGeometricChecked: SP-PG7-NL on given coordinates
	rcb                          // core.RCBParallelChecked: Zoltan-style RCB on given coordinates
)

// input is one graph of a workload after the METIS round trip, the
// path `scalapart -file` takes.
type input struct {
	name   string
	g      *graph.Graph
	coords []geometry.Vec2 // natural coordinates from the generator
}

// call is one closed-loop partition call. A workload's round is a fixed
// list of calls; a run repeats whole rounds.
type call struct {
	label  string
	in     *input
	p      int
	kind   callKind
	coords []geometry.Vec2 // geometric and rcb calls only
}

// graphSpec generates one of a workload's graphs from the seed.
type graphSpec struct {
	name  string
	build func(seed int64) *gen.Generated
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name   string
	graphs []graphSpec
	// round lays out the calls of one round over the read-back inputs.
	// It runs inside set-up, so input preparation it does (the
	// repartition deformation) counts towards setup_s.
	round func(ins []*input) []call
}

// workloads returns the benchmark's workloads at their stated sizes, or
// at tiny sizes for the smoke mode.
func workloads(tiny bool) []*workload {
	size := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	pHigh := size(1024, 16)
	return []*workload{
		{
			name: "mesh-embed",
			graphs: []graphSpec{
				{"delaunay", func(s int64) *gen.Generated { return gen.DelaunayRandom(size(262144, 2048), s) }},
				{"bubbles", func(s int64) *gen.Generated { return gen.Bubbles(size(280000, 2000), size(20, 4), s) }},
			},
			// The full P ∈ {4, 64} × graph product is ~83 s of calls on a
			// 2-core host; one round pairs each graph with one P.
			round: func(ins []*input) []call {
				return []call{
					{label: "delaunay/P64", in: ins[0], p: 64, kind: fullPipeline},
					{label: "bubbles/P4", in: ins[1], p: 4, kind: fullPipeline},
				}
			},
		},
		{
			name: "highp",
			graphs: []graphSpec{
				{"delaunay", func(s int64) *gen.Generated { return gen.DelaunayRandom(size(16384, 1024), s) }},
				{"circuit", func(s int64) *gen.Generated { return gen.Circuit(size(158, 30), size(158, 30), s) }},
				{"kkt_power", func(s int64) *gen.Generated { return gen.KKTPower(size(33000, 1500), s) }},
				{"trace", func(s int64) *gen.Generated { return gen.Trace(size(72000, 2000), s) }},
			},
			round: func(ins []*input) []call {
				calls := make([]call, len(ins))
				for i, in := range ins {
					calls[i] = call{label: fmt.Sprintf("%s/P%d", in.name, pHigh), in: in, p: pHigh, kind: fullPipeline}
				}
				return calls
			},
		},
		{
			name: "repartition",
			graphs: []graphSpec{
				{"delaunay", func(s int64) *gen.Generated { return gen.DelaunayRandom(size(262144, 2048), s) }},
			},
			round: func(ins []*input) []call {
				var calls []call
				for step, coords := range deformSteps(ins[0].coords, size(5, 2)) {
					for _, p := range []int{size(64, 4), pHigh} {
						calls = append(calls,
							call{label: fmt.Sprintf("step%d/sp/P%d", step, p), in: ins[0], p: p, kind: geometric, coords: coords},
							call{label: fmt.Sprintf("step%d/rcb/P%d", step, p), in: ins[0], p: p, kind: rcb, coords: coords})
					}
				}
				return calls
			},
		},
	}
}

func findWorkload(name string, tiny bool) (*workload, error) {
	var names []string
	for _, w := range workloads(tiny) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// deformSteps applies the shear plus radial swirl of
// examples/repartition step by step, each step deforming the previous
// step's coordinates, and returns a snapshot per step.
func deformSteps(base []geometry.Vec2, steps int) [][]geometry.Vec2 {
	cur := append([]geometry.Vec2(nil), base...)
	out := make([][]geometry.Vec2, steps)
	for step := range out {
		t := float64(step) * 0.3
		for i, q := range cur {
			dx := 0.35 * t * math.Sin(2*math.Pi*q.Y)
			r := q.Sub(geometry.Vec2{X: 0.5, Y: 0.5})
			swirl := 0.4 * t * math.Exp(-4*r.Dot(r))
			cos, sin := math.Cos(swirl), math.Sin(swirl)
			rot := geometry.Vec2{X: r.X*cos - r.Y*sin, Y: r.X*sin + r.Y*cos}
			cur[i] = geometry.Vec2{X: 0.5 + rot.X + dx, Y: 0.5 + rot.Y}
		}
		out[step] = append([]geometry.Vec2(nil), cur...)
	}
	return out
}

// setupPass is the timing of one complete set-up: generate every graph,
// write it to METIS text in memory, read it back, lay out the round.
type setupPass struct {
	total, gen, write, read float64 // seconds
	metisBytes              int64
}

// An untraced run sets up at least setupMinPasses times and for at
// least setupMinTime, so a workload whose set-up is short (highp's,
// ~0.4 s) takes the median over more passes; setup_s is that median.
// The traced run sets up once.
const (
	setupMinPasses = 3
	setupMinTime   = 3 * time.Second
)

// setup runs set-up passes (once, or as set out above when repeat is
// true) and returns the last pass's round with every pass's timing.
func setup(w *workload, seed int64, repeat bool) ([]call, []setupPass, error) {
	var calls []call
	var passes []setupPass
	start := time.Now()
	for len(passes) == 0 || repeat && (len(passes) < setupMinPasses || time.Since(start) < setupMinTime) {
		c, sp, err := setupOnce(w, seed)
		if err != nil {
			return nil, nil, err
		}
		calls, passes = c, append(passes, sp)
	}
	return calls, passes, nil
}

func setupOnce(w *workload, seed int64) ([]call, setupPass, error) {
	var sp setupPass
	start := time.Now()
	ins := make([]*input, len(w.graphs))
	for i, spec := range w.graphs {
		t := time.Now()
		generated := spec.build(seed)
		sp.gen += time.Since(t).Seconds()

		var buf bytes.Buffer
		t = time.Now()
		if err := graph.WriteMETIS(&buf, generated.G); err != nil {
			return nil, sp, fmt.Errorf("write %s: %w", spec.name, err)
		}
		sp.write += time.Since(t).Seconds()
		sp.metisBytes += int64(buf.Len())

		t = time.Now()
		g, err := graph.ReadMETIS(&buf)
		if err != nil {
			return nil, sp, fmt.Errorf("read %s: %w", spec.name, err)
		}
		sp.read += time.Since(t).Seconds()
		if g.NumVertices() != generated.G.NumVertices() || g.NumEdges() != generated.G.NumEdges() {
			return nil, sp, fmt.Errorf("%s: METIS round trip changed the graph (%d/%d vertices, %d/%d edges)",
				spec.name, g.NumVertices(), generated.G.NumVertices(), g.NumEdges(), generated.G.NumEdges())
		}
		ins[i] = &input{name: spec.name, g: g, coords: generated.Coords}
	}
	t := time.Now()
	calls := w.round(ins)
	sp.gen += time.Since(t).Seconds()
	sp.total = time.Since(start).Seconds()
	return calls, sp, nil
}
