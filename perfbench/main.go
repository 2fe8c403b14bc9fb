// Command perfbench is webracer's end-to-end benchmark. It runs one
// workload against the public API in this process, checks every output,
// and prints one JSON result line:
//
//	perfbench --workload corpus|sweep|service --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with no tracing at all.
// --trace 1 is the separate traced run: it times calls into each module's
// public functions from this package and reports the per-layer metrics.
// README.md records why each workload exists and which end-to-end metric
// each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

var workloadNames = []string{"corpus", "sweep", "service"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params is one run's command line.
type params struct {
	workload string
	seed     int64
	seconds  float64
	// tiny shrinks every fixed-size probe (smoke mode only).
	tiny bool
}

func main() {
	var p params
	var trace int
	var smoke, knee, writeExpected bool
	flag.StringVar(&p.workload, "workload", "", "corpus, sweep or service")
	flag.Int64Var(&p.seed, "seed", 1, "workload seed: picks every input of the run")
	flag.Float64Var(&p.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: traced per-layer run")
	flag.BoolVar(&smoke, "smoke", false, "run every workload tiny in both modes and check that every metric BENCHMARK.json names is printed")
	flag.BoolVar(&knee, "knee", false, "service only: climb the fixed rate ladder and print knee_rps")
	flag.BoolVar(&writeExpected, "write-expected", false, "regenerate expected/*.bin from the current sources")
	flag.Parse()

	var err error
	switch {
	case writeExpected:
		err = writeExpectedFiles("perfbench/expected")
	case smoke:
		err = runSmoke(p.seed)
	case knee:
		err = runKnee(p)
	default:
		var res *result
		res, err = runOne(p, trace == 1)
		if err == nil {
			err = emit(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runOne executes one workload in the requested mode.
func runOne(p params, traced bool) (*result, error) {
	if p.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if traced {
		return runTraced(p)
	}
	switch p.workload {
	case "corpus":
		return runCorpus(p)
	case "sweep":
		return runSweep(p)
	case "service":
		return runService(p)
	}
	return nil, fmt.Errorf("unknown --workload %q (want %s)", p.workload, strings.Join(workloadNames, ", "))
}

// emit prints the human-readable summary lines, then the JSON result as
// the last line of standard output.
func emit(res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# %-22s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames() (e2e, layer []string, err error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer, nil
}

// runSmoke runs every workload tiny, untraced and traced, and fails if the
// printed metrics differ from those BENCHMARK.json names for the mode or
// an output check fails. It covers the service workload too, which
// BENCHMARK.json does not gate.
func runSmoke(seed int64) error {
	e2e, layer, err := benchmarkNames()
	if err != nil {
		return err
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := runOne(params{workload: w, seed: seed, seconds: 1, tiny: true}, traced)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w, traced, err)
			}
			want := e2e
			if traced {
				want = layer
			}
			var missing []string
			named := map[string]bool{}
			for _, n := range want {
				named[n] = true
				if _, ok := res.Metrics[n]; !ok {
					missing = append(missing, n)
				}
			}
			for n := range res.Metrics {
				if !named[n] {
					missing = append(missing, n+" (printed, not in BENCHMARK.json)")
				}
			}
			if len(missing) > 0 {
				return fmt.Errorf("%s trace=%v: metrics differ from BENCHMARK.json: %v", w, traced, missing)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s trace=%v: %d of %d units failed their output check", w, traced, res.Failed, res.Attempted)
			}
			fmt.Printf("# smoke %-8s trace=%v ok: %d units, %d metrics\n", w, traced, res.Attempted, len(res.Metrics))
		}
	}
	fmt.Println(`{"smoke":"ok"}`)
	return nil
}
