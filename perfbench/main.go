// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the simulator's long-lived entry points, checks the
// outputs, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload suite|cold|warm --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// repeats the untraced rounds, then runs one traced round plus the
// per-layer replays, and reports the per-layer metrics. README.md lists
// every metric, the workloads and the reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// short runs every workload at a small scale with reduced request
	// counts; the benchmark's own tests use it.
	short bool
	// updateDigest rewrites the reference digest of this workload and
	// scale instead of checking against it.
	updateDigest bool
	// tmp holds the result stores the cold workload writes.
	tmp string
	// digestFile is the reference digest file.
	digestFile string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: request order and arrival times")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run (whole rounds, at least one)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "small scale and request counts (tests)")
	fs.BoolVar(&o.updateDigest, "update-digest", false, "rewrite the reference digest instead of checking it")
	fs.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for result stores")
	fs.StringVar(&o.digestFile, "digest-file", "perfbench/digest.txt", "reference digest file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	out, err := w(&o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if err := out.finishDigest(&o, stdout); err != nil {
		out.fail("digest: %v", err)
	}
	for _, msg := range out.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", msg)
	}
	line, err := out.resultLine(o.workload, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

// workloads maps each workload name to its driver.
var workloads = map[string]func(*options) (*outcome, error){
	"suite": runSuite,
	"cold":  runCold,
	"warm":  runWarm,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef declares one reported metric. For per-layer metrics, in lists
// the workloads that measure it; the others report 0, because their runs
// do not reach that layer.
type metricDef struct {
	name, unit string
	in         string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every workload reports every one (README.md gives each
// workload's definition).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "wall_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "alloc_mib", unit: "MiB"},
	{name: "retained_mib", unit: "MiB"},
	{name: "p50_ms", unit: "ms"},
}

// perLayer are the traced run's metrics, in layer order.
var perLayer = []metricDef{
	{"trace.gen_ms", "ms", "suite cold"},
	{"trace.scenes", "count", "suite cold"},
	{"geometry.ms", "ms", "suite cold"},
	{"geometry.prims", "count", "suite cold"},
	{"tiling.ms", "ms", "suite cold"},
	{"tiling.bin_entries", "count", "suite cold"},
	{"coverage.ms", "ms", "suite cold"},
	{"coverage.quads", "count", "suite cold"},
	{"prep.built", "count", "suite cold"},
	{"prep.runs_per_built", "ratio", "suite cold"},
	{"raster.ms", "ms", "suite cold"},
	{"raster.sims", "count", "suite cold"},
	{"raster.quads", "count", "suite cold"},
	{"raster.tex_samples", "count", "suite cold"},
	{"raster.ns_per_sample", "ns", "suite cold"},
	{"raster.allocs_per_sim", "count", "suite cold"},
	{"sched.cpu_s", "s", "suite cold"},
	{"texture.cpu_s", "s", "suite cold"},
	{"cache.cpu_s", "s", "suite cold"},
	{"dram.cpu_s", "s", "suite cold"},
	{"raster.other_cpu_s", "s", "suite cold"},
	{"cache.l1_accesses", "count", "suite cold warm"},
	{"cache.l1_misses", "count", "suite cold warm"},
	{"cache.l2_accesses", "count", "suite cold warm"},
	{"dram.accesses", "count", "suite cold warm"},
	{"raster.sim_cycles", "count", "suite cold warm"},
	{"sim.hits", "count", "suite warm"},
	{"sim.misses", "count", "suite cold"},
	{"sim.hit_us", "us", "suite warm"},
	{"sim.render_ms", "ms", "suite"},
	{"store.writes", "count", "cold"},
	{"store.write_ms", "ms", "cold"},
	{"serve.handler_us", "us", "cold warm"},
	{"serve.transport_us", "us", "cold warm"},
	{"serve.resp_kib", "KiB", "cold warm"},
	{"gc.cycles", "count", "suite cold warm"},
	{"gc.pause_ms", "ms", "suite cold warm"},
	{"loadgen.late_ms", "ms", "warm"},
	{"loadgen.p50_ms", "ms", "warm"},
	{"loadgen.p90_ms", "ms", "cold warm"},
	{"loadgen.p99_ms", "ms", "warm"},
	{"loadgen.max_rps", "1/s", "warm"},
	{"tracing.overhead_s", "s", "suite cold warm"},
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// problems lists every failed output check; any makes the run
	// incorrect.
	problems []string
	// digest hashes every simulated statistic the run produced; scale
	// keys it in the reference file.
	digest string
	scale  int
}

func newOutcome(scale int) *outcome {
	return &outcome{metrics: make(map[string]float64), scale: scale}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultDoc struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine renders the final JSON line: the end-to-end metrics, or with
// traced set the per-layer ones. A metric the workload should have
// measured but did not is an error, never a silent zero.
func (o *outcome) resultLine(workload string, traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	doc := resultDoc{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		measures := !traced || strings.Contains(" "+d.in+" ", " "+workload+" ")
		switch {
		case ok && (math.IsNaN(v) || math.IsInf(v, 0)):
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		case !ok && measures:
			missing = append(missing, d.name)
		}
		doc.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("workload %s did not measure %s", workload, strings.Join(missing, ", "))
	}
	if doc.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(doc)
}
