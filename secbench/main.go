// Command secbench is the repository's end-to-end benchmark. It builds
// the SecNDP stack in-process, drives one named workload against the
// public entry points callers use (serve.Service.LookupBags,
// secndp.Table.Query / QueryBatch, Engine.CreateTable), checks a seeded
// sample of results against a plaintext oracle, and prints every metric
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with every
// telemetry hook off. With --trace 1 they are the per-layer ones, from an
// untraced phase, a layer ladder replaying identical inputs through
// successive layers, and a traced phase with the program's telemetry on
// and the benchmark's own spans around every layer call; the spans and
// registry snapshot are written under --out.
//
// Run it through run.sh from the repository root:
//
//	bash secbench/run.sh --workload sls-local --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// quick shrinks every shape so a run finishes in about a second (the
	// benchmark's own tests use it).
	quick bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, runConfig) (*outcome, error){
	"dlrm-serve":    runDLRM,
	"sls-local":     runSLSLocal,
	"batch-refresh": runBatchRefresh,
}

// newRand derives an independent deterministic stream from the seed.
func newRand(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(stream)))))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dlrm-serve, sls-local or batch-refresh")
		seed    = flag.Int64("seed", 1, "seed for table contents and query streams")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build/secbench", "directory for results, run history and traces")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "secbench: need --workload {dlrm-serve|sls-local|batch-refresh}, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, lines, err := execute(context.Background(), *name, run, cfg, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secbench:", err)
		os.Exit(1)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "secbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// execute runs one workload and assembles the result, the human-readable
// report lines and the files under out.
func execute(ctx context.Context, name string, run func(context.Context, runConfig) (*outcome, error), cfg runConfig, out string) (result, []string, error) {
	start := time.Now()
	o, err := run(ctx, cfg)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", name, err)
	}
	o.layer["bench.fail_ratio"] = ratio(float64(o.failed), float64(o.attempted))
	if padUs := o.layer["core.pad_us"]; padUs > 0 {
		o.layer["otp.pad_gbps"] = o.padBytes / (padUs * 1e3) // bytes per ns = GB/s
	}
	defs := endToEnd
	values := o.e2e
	if cfg.trace {
		defs, values = perLayer, o.layer
	}
	res := result{
		Correct:   o.mismatches == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	printed := map[string]metricValue{}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
		printed[d.name] = res.Metrics[d.name]
	}
	var extras []string
	if !cfg.trace {
		// Printed and kept in the history, but not in the result line:
		// fail_ratio's healthy value is 0 (failed/attempted carry it), and
		// p99_ms is too unsteady from run to run to gate on (README.md).
		printed["p99_ms"] = metricValue{Value: o.e2e["p99_ms"], Unit: "ms"}
		printed["fail_ratio"] = metricValue{Value: o.layer["bench.fail_ratio"], Unit: "ratio"}
		extras = []string{"p99_ms", "fail_ratio"}
	}
	prov := provenance(name, cfg, o, time.Since(start))
	hist, err := recordHistory(out, name, cfg, printed)
	if err != nil {
		return result{}, nil, err
	}
	lines := report(name, cfg, o, defs, extras, printed, hist)
	pb, err := json.Marshal(prov)
	if err != nil {
		return result{}, nil, err
	}
	lines = append(lines, "# provenance "+string(pb))
	if cfg.trace && o.rec != nil {
		dir := traceDir(out, name, cfg)
		if err := writeTrace(dir, o.rec, o.snaps); err != nil {
			return result{}, nil, fmt.Errorf("write trace: %w", err)
		}
		lines = append(lines, fmt.Sprintf("# trace written to %s (%d spans dropped past the cap)", dir, o.rec.dropped))
	}
	return res, lines, nil
}
