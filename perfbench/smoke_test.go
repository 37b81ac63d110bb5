package main

import (
	"io"
	"testing"
)

// TestSmoke runs every workload at tiny sizes, untraced and traced, and
// checks that each run is correct and prints exactly the metrics
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice, including P=1024 runtime probes")
	}
	if err := runSmoke(io.Discard, "../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}
