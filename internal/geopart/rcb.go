package geopart

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// RCBModel names ParallelRCB's cost model, which is always the
// Zoltan-faithful one (version 2, see chargeZoltanRCB). It remains only
// because the standing benchmark prints it on its globals line.
func RCBModel() int { return 2 }

// RCBBisect computes a recursive-coordinate-bisection style single cut:
// the median plane orthogonal to the wider coordinate extent, exactly
// as Zoltan's RCB produces a two-way split. Ties are broken by vertex
// id so integer grids bisect exactly.
func RCBBisect(g *graph.Graph, coords []geometry.Vec2) ([]int32, Stats) {
	n := g.NumVertices()
	part := make([]int32, n)
	if n <= 1 {
		return part, Stats{Tries: 1}
	}
	r := geometry.BoundingRect(coords)
	vals := make([]float64, n)
	if r.Width() >= r.Height() {
		for i, p := range coords {
			vals[i] = p.X
		}
	} else {
		for i, p := range coords {
			vals[i] = p.Y
		}
	}
	bisectByValues(vals, part)
	return part, Stats{
		Cut:       graph.CutSize(g, part),
		Imbalance: graph.Imbalance(g, part, 2),
		Tries:     1,
		BestKind:  "rcb",
	}
}

// RCB recursively bisects g into parts pieces (parts must be a power of
// two) by coordinate medians, alternating with the wider extent at each
// level. It returns the part assignment, or an error for an invalid
// part count or a coordinate array that does not match the graph.
func RCB(g *graph.Graph, coords []geometry.Vec2, parts int) ([]int32, error) {
	if parts < 1 || parts&(parts-1) != 0 {
		return nil, fmt.Errorf("geopart: RCB part count %d must be a power of two", parts)
	}
	n := g.NumVertices()
	if len(coords) != n {
		return nil, fmt.Errorf("geopart: RCB got %d coordinates for %d vertices", len(coords), n)
	}
	part := make([]int32, n)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	rcbSplit(coords, idx, part, 0, parts)
	return part, nil
}

// rcbSplit assigns part ids [base, base+parts) to the vertices idx.
func rcbSplit(coords []geometry.Vec2, idx []int32, part []int32, base int32, parts int) {
	if parts == 1 || len(idx) <= 1 {
		for _, v := range idx {
			part[v] = base
		}
		return
	}
	pts := make([]geometry.Vec2, len(idx))
	for i, v := range idx {
		pts[i] = coords[v]
	}
	r := geometry.BoundingRect(pts)
	vals := make([]float64, len(idx))
	if r.Width() >= r.Height() {
		for i, p := range pts {
			vals[i] = p.X
		}
	} else {
		for i, p := range pts {
			vals[i] = p.Y
		}
	}
	sides := make([]int32, len(idx))
	bisectByValues(vals, sides)
	var lo, hi []int32
	for i, v := range idx {
		if sides[i] == 0 {
			lo = append(lo, v)
		} else {
			hi = append(hi, v)
		}
	}
	rcbSplit(coords, lo, part, base, parts/2)
	rcbSplit(coords, hi, part, base+int32(parts/2), parts/2)
}
