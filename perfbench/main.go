// Command perfbench is ScalaPart's standing benchmark. It generates a
// workload's graphs from a seed, round-trips them through METIS text,
// and drives the library's public partition calls as a closed loop from
// one caller at the library's defaults. Every call's output is checked.
//
// The untraced run (-trace 0) prints the end-to-end metrics; the traced
// run (-trace 1) composes each call of one round from the layers' public
// functions in a world with Model.Trace set and prints the per-layer
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Run it from the module root through perfbench/run.py, which builds it
// and sets GODEBUG=madvdontneed=0 (see README.md), or directly:
//
//	cd perfbench && GODEBUG=madvdontneed=0 go run . -workload highp -seed 1 -seconds 40 -trace 0
//
// -smoke runs every workload at tiny sizes in both modes and checks that
// each metric BENCHMARK.json names is printed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/embed"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/hostpar"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// probeRanks is the world size of the mpi.* probes.
const probeRanks = 1024

// run executes one workload run and returns its result; diagnostics and
// the per-call digests go to out.
func run(out io.Writer, w *workload, seed int64, budget time.Duration, traced bool) result {
	printGlobals(out)
	calls, setups, err := setup(w, seed, !traced)
	if err != nil {
		fmt.Fprintf(out, "FAIL setup: %v\n", err)
		return result{Attempted: 1, Failed: 1, Metrics: metrics{}}
	}
	var r result
	var m metrics
	if traced {
		m, r.Attempted, err = perLayer(out, calls, setups[0], seed, probeRanks)
		if err != nil {
			fmt.Fprintf(out, "FAIL traced run, no per-layer numbers: %v\n", err)
			return result{Attempted: max(r.Attempted, 1), Failed: 1, Metrics: metrics{}}
		}
	} else {
		st := closedLoop(out, calls, seed, budget)
		r.Attempted, r.Failed = st.attempted, st.failed
		m = endToEnd(out, st, setups)
	}
	r.Metrics = m
	r.Correct = r.Failed == 0
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fmt.Fprintf(out, "FAIL metric %s is %v\n", name, v.Value)
			r.Correct = false
			delete(m, name) // JSON cannot carry it
		}
	}
	return r
}

// printGlobals records the process-global knobs the library reads,
// without touching any of them: the benchmark measures the defaults.
func printGlobals(out io.Writer) {
	fmt.Fprintf(out, "globals GODEBUG=%q GOMAXPROCS=%d hostpar.workers=%d embed.parallel=%v geopart.batching=%v geopart.rcb_model=%d refine.full_cut=%v graph.parallel_build=%v graph.parallel_parse=%v mpi.collectives=%v mpi.replay=%v mpi.pooling=%v mpi.watchdog=%v\n",
		os.Getenv("GODEBUG"), runtime.GOMAXPROCS(0), hostpar.Workers(), embed.Parallel(), geopart.Batching(), geopart.RCBModel(),
		refine.FullCut(), graph.ParallelBuild(), graph.ParallelParse(), mpi.Collectives(), mpi.Replay(),
		mpi.PoolingEnabled(), mpi.WatchdogTimeout())
}

func main() {
	name := flag.String("workload", "", "workload: highp, repartition, or mesh-embed (not in BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs and the partitioner")
	seconds := flag.Float64("seconds", 10, "after a warm-up round, time calls until this many seconds have passed (at least one whole round)")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics from the untraced run; 1: per-layer metrics from the traced run")
	smoke := flag.Bool("smoke", false, "run every workload at tiny sizes in both modes and check the metrics ./BENCHMARK.json names")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	stop := func() {}
	if *cpuprofile != "" {
		var err error
		if stop, err = startProfile(*cpuprofile); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(2)
		}
	}
	code := mainCode(*name, *seed, *seconds, *traceFlag, *smoke)
	stop()
	os.Exit(code)
}

// mainCode runs the benchmark and returns the process exit code.
func mainCode(name string, seed int64, seconds float64, traceFlag int, smoke bool) int {
	if smoke {
		if err := runSmoke(os.Stdout, "BENCHMARK.json"); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: %v\n", err)
			return 1
		}
		fmt.Println("smoke ok")
		return 0
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "-trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	w, err := findWorkload(name, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	r := run(os.Stdout, w, seed, time.Duration(seconds*float64(time.Second)), traceFlag == 1)
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !r.Correct {
		return 1
	}
	return 0
}

// startProfile starts a CPU profile into path and returns its stop.
func startProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
		}
	}, nil
}
