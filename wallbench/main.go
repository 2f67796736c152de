// Command wallbench is the repository's wall-clock benchmark. It runs one
// named workload against the real code, checks that the outputs are
// correct, and prints its metrics, each with its unit, as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 5.1, "unit": "ms"}, ...}}
//
// Workloads:
//
//   - offline-fig8: what `jawsbench -bench-out` does — bench.Run at
//     experiments.DefaultScale (the fig8 scenario under JAWS2 with spans
//     and the unbounded flight recorder, then the wait-cause breakdown
//     and the encode), repeated for the measured time. Every artifact
//     must be byte-identical to the committed BENCH_main.json, so the
//     input is that artifact's fixed configuration; the seed only drives
//     the traced run's sampling.
//   - serve-miss: two jaws.OpenSession replicas behind server.New
//     (2 workers) on a loopback listener, 16 cache atoms per node, driven
//     closed-loop over 2 connections with 4-point lag4 queries.
//   - serve-hit: the same stack with 64 cache atoms per node, driven
//     open-loop with seeded Poisson arrivals at 300 req/s over 2
//     connections with the poisson-box mix of 64-position queries.
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With -trace 1 the run measures an untraced and a traced phase
// and reports per-layer metrics taken from the traced one: spans and
// timers the benchmark wraps around its calls into each layer, a
// forwarding decorator around the scheduler, and replays of the run's
// own inputs through single layers. Spans stay in memory and are written
// as JSONL under -out when the run ends.
//
// Usage (from the repository root; wallbench/run.sh builds and runs it):
//
//	wallbench -workload serve-miss -seed 1 -seconds 15 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. An "op" is one artifact offline and one
// request when serving; PREDICTIONS.md defines each per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_q", "ms"},
	{"alloc_kb_per_q", "KB"},
	{"peak_heap_mb", "MB"},
	{"ok_frac", "frac"},
}

// perLayer are the traced run's per-module metrics, in the result line.
// Each is a time measured on every workload, or a count or share, which
// reads 0 where a workload does not exercise the layer (no server
// offline, no job graph or flight recorder behind the daemon).
var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"store.open_s", "s"},
	{"store.reads", "count"},
	{"store.read_us", "us"},
	{"store.busy_s", "s"},
	{"cache.hit_rate", "frac"},
	{"cache.misses", "count"},
	{"query.preprocess_calls", "count"},
	{"query.preprocess_s", "s"},
	{"jobgraph.admit_calls", "count"},
	{"jobgraph.admit_share", "frac"},
	{"jobgraph.gating_admitted", "count"},
	{"jobgraph.gating_rejected", "count"},
	{"sched.decisions", "count"},
	{"sched.enqueues", "count"},
	{"sched.decision_ns", "ns"},
	{"sched.busy_s", "s"},
	{"sched.atoms_per_decision", "count"},
	{"field.interp_points", "count"},
	{"field.interp_ns", "ns"},
	{"engine.run_s", "s"},
	{"engine.self_s", "s"},
	{"obs.flight_records", "count"},
	{"obs.flight_share", "frac"},
	{"obs.spans", "count"},
	{"obs.causes_share", "frac"},
	{"server.requests", "count"},
	{"server.served", "count"},
	{"server.shed", "count"},
	{"server.timeouts", "count"},
	{"server.errors", "count"},
	{"server.validate_share", "frac"},
	{"server.queued_share", "frac"},
	{"server.dispatch_share", "frac"},
	{"server.execute_share", "frac"},
	{"server.write_share", "frac"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"loadgen.sent", "count"},
	{"trace.overhead_frac", "frac"},
}

// layerDetail are timings of layers only some workloads exercise. Traced
// runs print them on standard error but keep them out of the result
// line, where a time reading 0 on every run of a workload would pass for
// an unmeasured one; the shares above carry them there.
var layerDetail = []metricDef{
	{"jobgraph.admit_s", "s"},
	{"obs.flight_s", "s"},
	{"obs.causes_s", "s"},
	{"engine.session_ms_p50", "ms"},
	{"engine.session_ms_p99", "ms"},
	{"server.validate_ms", "ms"},
	{"server.queued_ms", "ms"},
	{"server.dispatch_ms", "ms"},
	{"server.execute_ms", "ms"},
	{"server.write_ms", "ms"},
	{"loadgen.tail_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // checkout root: where BENCH_main.json lives
	out      string // where span files are written
	log      io.Writer
}

// outcome is what a workload run produces.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	tracer    *tracer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(options) (*outcome, error){
	"offline-fig8": runOffline,
	"serve-miss":   func(o options) (*outcome, error) { return runServe(o, serveMiss) },
	"serve-hit":    func(o options) (*outcome, error) { return runServe(o, serveHit) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
		seed     = fs.Int64("seed", 1, "workload seed")
		seconds  = fs.Float64("seconds", 15, "length of the measured phase in seconds")
		trace    = fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		root     = fs.String("root", ".", "repository checkout root")
		out      = fs.String("out", filepath.Join(".bench_build", "wallbench"), "directory for span files of traced runs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "wallbench: need -workload in %v, -seconds > 0 and -trace 0 or 1\n", workloadNames())
		return 2
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		root:     *root,
		out:      *out,
		log:      stderr,
	}
	res, err := fn(o)
	if err != nil {
		fmt.Fprintf(stderr, "wallbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.trace {
		path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))
		if err := res.tracer.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "wallbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans           %d -> %s\n", res.tracer.count(), path)
	}
	defs, printed := endToEnd, endToEnd
	if o.trace {
		defs, printed = perLayer, append(append([]metricDef(nil), perLayer...), layerDetail...)
	}
	if _, err := resultJSON(res, printed); err != nil {
		fmt.Fprintf(stderr, "wallbench: %v\n", err)
		return 1
	}
	line, err := resultJSON(res, defs)
	if err != nil {
		fmt.Fprintf(stderr, "wallbench: %v\n", err)
		return 1
	}
	for _, d := range printed {
		fmt.Fprintf(stderr, "%-26s %16.6f %s\n", d.name, res.metrics[d.name], d.unit)
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		fmt.Fprintf(stderr, "wallbench: %s: output checks failed\n", o.workload)
		return 1
	}
	return 0
}

// resultJSON renders the result line with exactly the metrics in defs;
// a metric the workload did not set is an error, not a silent zero.
func resultJSON(res *outcome, defs []metricDef) ([]byte, error) {
	line := resultLine{
		Correct:   res.correct,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return json.Marshal(line)
}
