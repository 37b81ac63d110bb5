package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/hostpar"
)

// randomBuilder fills a builder with a reproducible edge soup:
// duplicates, weight accumulation, self-loops, and (optionally) vertex
// weights — every deduplication path the serial builder handles.
func randomBuilder(n, records int, weighted bool, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < records; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		w := int32(1)
		if weighted {
			w = int32(rng.Intn(9) + 1)
		}
		b.AddWeightedEdge(u, v, w)
	}
	if weighted {
		for v := 0; v < n; v += 3 {
			b.SetVertexWeight(int32(v), int32(rng.Intn(100)))
		}
	}
	return b
}

func graphsEqual(t *testing.T, tag string, a, b *Graph) {
	t.Helper()
	if !int32SlicesEqual(a.XAdj, b.XAdj) {
		t.Fatalf("%s: XAdj differs", tag)
	}
	if !int32SlicesEqual(a.Adjncy, b.Adjncy) {
		t.Fatalf("%s: Adjncy differs", tag)
	}
	if (a.EWgt == nil) != (b.EWgt == nil) || !int32SlicesEqual(a.EWgt, b.EWgt) {
		t.Fatalf("%s: EWgt differs (nil-ness %v vs %v)", tag, a.EWgt == nil, b.EWgt == nil)
	}
	if (a.VWgt == nil) != (b.VWgt == nil) || !int32SlicesEqual(a.VWgt, b.VWgt) {
		t.Fatalf("%s: VWgt differs", tag)
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelBuildBitIdentical compares the parallel bucket path
// against buildSerial's global sort-and-merge on dense, sparse, weighted, and
// unweighted inputs across worker counts — CSR arrays, weight arrays,
// and weightedness detection must agree bit-for-bit.
func TestParallelBuildBitIdentical(t *testing.T) {
	defer func(m int) { parallelBuildMinEdges = m }(parallelBuildMinEdges)
	parallelBuildMinEdges = 1 // force even tiny builds through the parallel path
	cases := []struct {
		n, records int
		weighted   bool
	}{
		{1, 10, false},
		{13, 40, true},
		{500, 3000, false},
		{500, 3000, true},
		{4096, 50000, true},
		{4096, 50000, false},
		{30, 5000, true}, // heavy duplication: every pair merged many times
	}
	for ci, tc := range cases {
		b := randomBuilder(tc.n, tc.records, tc.weighted, int64(1000+ci))
		want := b.buildSerial()
		for _, w := range []int{1, 2, 8} {
			defer hostpar.SetWorkers(hostpar.SetWorkers(w))
			got := b.Build()
			graphsEqual(t, fmt.Sprintf("case %d workers %d", ci, w), want, got)
		}
	}
}

// TestParallelBuildUnitWeightMergeStaysWeighted: two unit-weight
// records of the same edge merge to weight 2, which must flip the graph
// to weighted on both paths.
func TestParallelBuildUnitWeightMergeStaysWeighted(t *testing.T) {
	defer func(m int) { parallelBuildMinEdges = m }(parallelBuildMinEdges)
	parallelBuildMinEdges = 1
	mk := func() *Builder {
		b := NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(1, 0)
		b.AddEdge(2, 3)
		return b
	}
	want := mk().buildSerial()
	got := mk().Build()
	if want.EWgt == nil || got.EWgt == nil {
		t.Fatalf("merged duplicate should force weights: serial nil=%v parallel nil=%v", want.EWgt == nil, got.EWgt == nil)
	}
	graphsEqual(t, "unit merge", want, got)
}

// TestParallelBuildSteadyStateAllocs guards the parallel builder's
// allocation budget: with the scratch pool warm, a Build call may
// allocate only its output arrays (XAdj, Adjncy, EWgt, VWgt) plus
// small fixed bookkeeping — not the O(E) working set.
func TestParallelBuildSteadyStateAllocs(t *testing.T) {
	defer hostpar.SetWorkers(hostpar.SetWorkers(2))
	b := randomBuilder(2000, 20000, true, 7)
	for i := 0; i < 3; i++ {
		b.Build() // warm the scratch pool
	}
	const calls = 10
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		b.Build()
	}
	runtime.ReadMemStats(&m1)
	perCall := float64(m1.Mallocs-m0.Mallocs) / calls
	// 4 output arrays + per-chunk task closures and waiters; the O(E)
	// arc buffer and offset arrays must come from the pool.
	if perCall > 64 {
		t.Errorf("steady-state parallel Build: %.0f mallocs per call, want well under 64", perCall)
	}
	t.Logf("steady-state parallel Build: %.1f mallocs per call", perCall)
}

// BenchmarkBuilderBuild measures CSR assembly of 2^20 edge records
// over 2^17 vertices.
func BenchmarkBuilderBuild(b *testing.B) {
	bld := randomBuilder(1<<17, 1<<20, false, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := bld.Build()
		if g.NumVertices() != 1<<17 {
			b.Fatal("bad build")
		}
	}
}
