package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchRowsBitIdenticalToSeed recomputes a sample of BENCH_4.json
// rows — the perf-trajectory file committed before the observability
// layer existed — and requires every modeled field to be bit-identical,
// both with tracing disabled (the default) and with a Recorder
// attached. The sample covers the four cheapest graphs at P ∈ {1, 4,
// 16}; the full 45-row sweep is the BENCH regeneration job's business.
func TestBenchRowsBitIdenticalToSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes bench rows at the seed scale (~10s)")
	}
	raw, err := os.ReadFile("../../BENCH_4.json")
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[int]BenchRecord{}
	for _, r := range file.Runs {
		if rows[r.Graph] == nil {
			rows[r.Graph] = map[int]BenchRecord{}
		}
		rows[r.Graph][r.P] = r
	}

	graphs := []string{"ecology1", "ecology2", "delaunay_n20", "G3_circuit"}
	ps := []int{1, 4, 16}
	check := func(t *testing.T, want BenchRecord, got *Run) {
		t.Helper()
		if got.Cut != want.Cut || got.Imbalance != want.Imbalance ||
			got.Time != want.ModeledTime || got.CommTime != want.CommTime ||
			got.Messages != want.Messages || got.BytesSent != want.BytesSent {
			t.Fatalf("%s P=%d drifted from BENCH_4.json:\n  want cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d\n  got  cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d",
				want.Graph, want.P,
				want.Cut, want.Imbalance, want.ModeledTime, want.CommTime, want.Messages, want.BytesSent,
				got.Cut, got.Imbalance, got.Time, got.CommTime, got.Messages, got.BytesSent)
		}
	}

	h := New(file.Scale, ps)
	for _, g := range graphs {
		for _, p := range ps {
			want, ok := rows[g][p]
			if !ok {
				t.Fatalf("BENCH_4.json has no row for %s P=%d", g, p)
			}
			check(t, want, h.Get(g, MethodSP, p))
		}
	}

	// A traced run must reproduce the same modeled fields bit-for-bit
	// and additionally carry the phase breakdown.
	h.Trace = true
	for _, p := range []int{1, 4} {
		r := h.Get("ecology1", MethodSP, p)
		check(t, rows["ecology1"][p], r)
		if len(r.Breakdown) == 0 {
			t.Fatalf("traced ecology1 P=%d run has no phase breakdown", p)
		}
	}
}

// TestBenchRowsMatchSeedCompressed recomputes a sample of BENCH_5.json
// rows — the scale-0.25 perf-trajectory committed before the compressed
// representation existed — twice, once on plain CSR graphs and once
// under Harness.Compress, and requires every modeled field to be
// bit-identical to the seed file both times. This is the BENCH half of
// the compression contract (core's TestCompressedPipelineBitIdentical
// is the pipeline half): -compress may only change host wall clocks and
// memory footprints, never a recorded result.
func TestBenchRowsMatchSeedCompressed(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes bench rows at the seed scale twice (~20s)")
	}
	raw, err := os.ReadFile("../../BENCH_5.json")
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[int]BenchRecord{}
	for _, r := range file.Runs {
		if rows[r.Graph] == nil {
			rows[r.Graph] = map[int]BenchRecord{}
		}
		rows[r.Graph][r.P] = r
	}

	graphs := []string{"ecology1", "ecology2", "delaunay_n20", "G3_circuit"}
	ps := []int{1, 4, 16}
	for _, compress := range []bool{false, true} {
		h := New(file.Scale, ps)
		h.Compress = compress
		for _, g := range graphs {
			for _, p := range ps {
				want, ok := rows[g][p]
				if !ok {
					t.Fatalf("BENCH_5.json has no row for %s P=%d", g, p)
				}
				got := h.Get(g, MethodSP, p)
				if got.Cut != want.Cut || got.Imbalance != want.Imbalance ||
					got.Time != want.ModeledTime || got.CommTime != want.CommTime ||
					got.Messages != want.Messages || got.BytesSent != want.BytesSent {
					t.Fatalf("compress=%v: %s P=%d drifted from BENCH_5.json:\n  want cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d\n  got  cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d",
						compress, want.Graph, want.P,
						want.Cut, want.Imbalance, want.ModeledTime, want.CommTime, want.Messages, want.BytesSent,
						got.Cut, got.Imbalance, got.Time, got.CommTime, got.Messages, got.BytesSent)
				}
				if got.PeakRSS <= 0 {
					t.Errorf("compress=%v: %s P=%d run recorded no peak RSS", compress, g, p)
				}
			}
		}
		// The compressed sweep must actually have consumed the compressed
		// representation, and at a worthwhile footprint.
		gg := h.Graph("ecology1")
		if gg.G.Compressed() != compress {
			t.Fatalf("compress=%v but harness graph Compressed()=%v", compress, gg.G.Compressed())
		}
		if compress {
			plain := 4 * int64(2*gg.G.NumEdges())
			if gg.G.EWgt != nil {
				plain *= 2
			}
			if adj := gg.G.AdjacencyBytes(); adj > plain*60/100 {
				t.Errorf("compressed adjacency %dB exceeds 60%% of plain %dB", adj, plain)
			}
		}
	}
}

// TestBenchRowsMatchSeedHighP recomputes a P-sweep sample of
// BENCH_6.json — the scale-1 perf-trajectory committed before the
// high-P collective engine existed — and requires every modeled field
// to be bit-identical to the seed file. This is the BENCH half of the
// engine contract (mpi.TestCollectiveWordPathMatchesBoxed and
// core.TestReplayModesBitIdentical are the runtime and pipeline
// halves): the fan-in rendezvous, word fast path, ring mailboxes, and
// rank arena may only change host wall clocks and memory footprints,
// never a recorded result.
func TestBenchRowsMatchSeedHighP(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes scale-1 bench rows across the P sweep (~10s)")
	}
	raw, err := os.ReadFile("../../BENCH_6.json")
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	rows := map[int]BenchRecord{}
	for _, r := range file.Runs {
		if r.Graph == "ecology1" {
			rows[r.P] = r
		}
	}

	h := New(file.Scale, file.Ps)
	h.Compress = true // BENCH_6 was recorded with -compress
	for _, p := range file.Ps {
		want, ok := rows[p]
		if !ok {
			t.Fatalf("BENCH_6.json has no row for ecology1 P=%d", p)
		}
		got := h.Get("ecology1", MethodSP, p)
		if got.Cut != want.Cut || got.Imbalance != want.Imbalance ||
			got.Time != want.ModeledTime || got.CommTime != want.CommTime ||
			got.Messages != want.Messages || got.BytesSent != want.BytesSent {
			t.Fatalf("ecology1 P=%d drifted from BENCH_6.json:\n  want cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d\n  got  cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d",
				p,
				want.Cut, want.Imbalance, want.ModeledTime, want.CommTime, want.Messages, want.BytesSent,
				got.Cut, got.Imbalance, got.Time, got.CommTime, got.Messages, got.BytesSent)
		}
	}
}
