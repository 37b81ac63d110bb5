package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the smoke mode checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// runSmoke runs every workload BENCHMARK.json names at tiny sizes,
// untraced and traced, and checks that each run is correct and prints
// exactly the metrics the file names, with their units.
func runSmoke(out io.Writer, specPath string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("parse %s: %w", specPath, err)
	}
	for _, sw := range s.Workloads {
		w, err := findWorkload(sw.Name, true)
		if err != nil {
			return err
		}
		for _, traced := range []bool{false, true} {
			want := s.EndToEnd
			if traced {
				want = s.PerLayer
			}
			var log bytes.Buffer
			r := run(&log, w, 1, 0, traced)
			if err := checkMetrics(r, want); err != nil {
				out.Write(log.Bytes())
				return fmt.Errorf("%s trace=%v: %w", w.name, traced, err)
			}
			fmt.Fprintf(out, "%-12s trace=%-5v %d metrics, %d calls\n", w.name, traced, len(r.Metrics), r.Attempted)
		}
	}
	return nil
}

func checkMetrics(r result, want []specMetric) error {
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		return fmt.Errorf("run not correct: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	seen := map[string]bool{}
	for _, sm := range want {
		got, ok := r.Metrics[sm.Name]
		if !ok {
			return fmt.Errorf("metric %s not printed", sm.Name)
		}
		if got.Unit != sm.Unit {
			return fmt.Errorf("metric %s printed in %q, BENCHMARK.json says %q", sm.Name, got.Unit, sm.Unit)
		}
		seen[sm.Name] = true
	}
	var extra []string
	for name := range r.Metrics {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %v printed but not named in BENCHMARK.json", extra)
	}
	return nil
}
