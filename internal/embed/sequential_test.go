package embed

import (
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/quadtree"
)

// smoothLevelSerial is the interleaved serial force loop smoothLevel
// replaced: a fresh tree per iteration, the energy summed as each force
// is computed. It is the reference TestSequentialLayoutWorkerBitIdentical
// checks the chunked kernel against.
func smoothLevelSerial(g *graph.Graph, pos []geometry.Vec2, opt SeqOptions, iters int) {
	n := g.NumVertices()
	if n <= 1 {
		return
	}
	mass := make([]float64, n)
	for v := 0; v < n; v++ {
		mass[v] = float64(g.VertexWeight(int32(v)))
	}
	ctl := NewStepController(opt.Force.K)
	fp := opt.Force
	forces := make([]geometry.Vec2, n)
	cur := graph.GetCursor(g)
	defer cur.Release()
	for it := 0; it < iters; it++ {
		tree := quadtree.Build(pos, mass)
		energy := 0.0
		for v := 0; v < n; v++ {
			var f geometry.Vec2
			p := pos[v]
			tree.ForEachCluster(p, int32(v), opt.Theta, func(com geometry.Vec2, m float64, _ int32) {
				f = f.Add(fp.Repulsive(p, com, m).Scale(mass[v]))
			})
			nbrs, wgts := cur.Arcs(int32(v))
			for k, w := range nbrs {
				f = f.Add(fp.Attractive(p, pos[w]).Scale(float64(wgts[k])))
			}
			forces[v] = f
			energy += f.Dot(f)
		}
		for v := 0; v < n; v++ {
			norm := forces[v].Norm()
			if norm < 1e-12 {
				continue
			}
			pos[v] = pos[v].Add(forces[v].Scale(ctl.Step / norm))
		}
		ctl.Update(energy)
		if ctl.Step < 1e-3*fp.K {
			break
		}
	}
}
