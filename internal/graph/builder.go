package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates undirected edges and produces a validated CSR
// Graph. Duplicate edges are merged (summing weights) and self-loops
// are dropped, so generators can add edges carelessly.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	ws    []int32
	vwgt  []int32
	wsAny bool // true if any non-unit edge weight was added
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge records the undirected unit-weight edge {u, v}. Self-loops
// are ignored. Panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u, v} with weight w.
// Adding the same pair again accumulates weight.
func (b *Builder) AddWeightedEdge(u, v int32, w int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	if w != 1 {
		b.wsAny = true
	}
}

// SetVertexWeight assigns weight w to vertex v (default 1).
func (b *Builder) SetVertexWeight(v int32, w int32) {
	if b.vwgt == nil {
		b.vwgt = make([]int32, b.n)
		for i := range b.vwgt {
			b.vwgt[i] = 1
		}
	}
	b.vwgt[v] = w
}

// Build produces the CSR graph. The builder remains usable (more edges
// may be added and Build called again). Builds of at least
// parallelBuildMinEdges records run the parallel per-vertex bucket path
// (see builder_par.go), smaller ones the serial sort-and-merge; the two
// paths are bit-identical.
func (b *Builder) Build() *Graph {
	if len(b.us) >= parallelBuildMinEdges {
		return b.buildParallel()
	}
	return b.buildSerial()
}

// buildSerial is the global sort-and-merge path: the small-build path,
// and the reference the parallel path is tested against.
func (b *Builder) buildSerial() *Graph {
	// Sort edge records by (u, v) to merge duplicates.
	idx := make([]int32, len(b.us))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		a, c := idx[i], idx[j]
		if b.us[a] != b.us[c] {
			return b.us[a] < b.us[c]
		}
		return b.vs[a] < b.vs[c]
	})
	type rec struct {
		u, v, w int32
	}
	merged := make([]rec, 0, len(idx))
	for _, k := range idx {
		u, v, w := b.us[k], b.vs[k], b.ws[k]
		if len(merged) > 0 && merged[len(merged)-1].u == u && merged[len(merged)-1].v == v {
			merged[len(merged)-1].w += w
			continue
		}
		merged = append(merged, rec{u, v, w})
	}
	// Count degrees (each undirected edge contributes to both rows).
	xadj := make([]int32, b.n+1)
	for _, e := range merged {
		xadj[e.u+1]++
		xadj[e.v+1]++
	}
	for i := 0; i < b.n; i++ {
		xadj[i+1] += xadj[i]
	}
	adj := make([]int32, xadj[b.n])
	var ewgt []int32
	weighted := b.wsAny
	if !weighted {
		// Duplicate merging may have produced non-unit weights.
		for _, e := range merged {
			if e.w != 1 {
				weighted = true
				break
			}
		}
	}
	if weighted {
		ewgt = make([]int32, len(adj))
	}
	cursor := append([]int32(nil), xadj[:b.n]...)
	for _, e := range merged {
		adj[cursor[e.u]] = e.v
		if weighted {
			ewgt[cursor[e.u]] = e.w
		}
		cursor[e.u]++
		adj[cursor[e.v]] = e.u
		if weighted {
			ewgt[cursor[e.v]] = e.w
		}
		cursor[e.v]++
	}
	g := &Graph{XAdj: xadj, Adjncy: adj, EWgt: ewgt}
	if b.vwgt != nil {
		g.VWgt = append([]int32(nil), b.vwgt...)
	}
	return g
}

// FromEdges is a convenience constructor building an unweighted graph
// from an edge list.
func FromEdges(n int, edges [][2]int32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
