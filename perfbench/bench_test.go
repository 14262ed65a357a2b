package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"dtexl/internal/perfdb"
)

// runShort runs one workload end to end in short mode and returns its
// parsed result line and the line itself.
func runShort(t *testing.T, workload, trace string) (resultDoc, []byte) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--short", "--seconds", "1", "--trace", trace,
		"--tmp", t.TempDir(), "--digest-file", "digest.txt"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s --trace %s exited %d:\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	last := []byte(lines[len(lines)-1])
	var doc resultDoc
	dec := json.NewDecoder(bytes.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("%s: last line %q: %v", workload, last, err)
	}
	return doc, last
}

// TestShortWorkloads runs every workload at a small scale with every
// output check, untraced and traced, and checks the result line's shape.
func TestShortWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				doc, line := runShort(t, w, trace)
				if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d", doc.Correct, doc.Attempted, doc.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(doc.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(doc.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := doc.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v", d.name, m.Value)
					}
				}
				if trace == "1" && (w == "suite" || w == "cold") {
					for _, name := range []string{"raster.ms", "sched.cpu_s", "cache.cpu_s", "coverage.ms", "geometry.prims"} {
						if doc.Metrics[name].Value <= 0 {
							t.Errorf("%s is %v", name, doc.Metrics[name].Value)
						}
					}
				}
				checkIngestible(t, line, defs)
			})
		}
	}
}

// checkIngestible feeds a result line to the perf database's
// golden-metrics flattener and requires a series for every metric.
func checkIngestible(t *testing.T, line []byte, defs []metricDef) {
	t.Helper()
	points, err := perfdb.ParseGoldenMetrics(line, "c0ffee", "perfbench")
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	for _, p := range points {
		series[p.Series] = true
	}
	for _, d := range defs {
		if name := "perfbench.metrics." + d.name + ".value"; !series[name] {
			t.Errorf("ingested series lack %s", name)
		}
	}
	for _, name := range []string{"perfbench.correct", "perfbench.attempted", "perfbench.failed"} {
		if !series[name] {
			t.Errorf("ingested series lack %s", name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the metrics and workloads the
// command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("workloads %q, want %q", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("end_to_end[%d] = %+v, want %s in %s with a bound in (0, 0.25]", i, e, d.name, d.unit)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if e := b.PerLayer[i]; e.Name != d.name || e.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, want %s in %s", i, e, d.name, d.unit)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		rank int
		tail bool
	}{
		{100, 0.9, 90, true},
		{99, 0.9, 90, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{40, 0.5, 20, true},
		{1, 0.5, 1, false},
	} {
		if got := rank(c.n, c.q); got != c.rank {
			t.Errorf("rank(%d, %v) = %d, want %d", c.n, c.q, got, c.rank)
		}
		if got := tailSupported(c.n, c.q); got != c.tail {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.tail)
		}
	}
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := quantile(xs, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 1 2 = %v, want 2", got)
	}
	if got := median([]float64{13, 11}); got != 12 {
		t.Errorf("median of 13 11 = %v, want their mean 12", got)
	}
	// A failed request counts as +Inf, so two failures in 100 put the
	// p99 beyond any limit.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
	}
	lat[0], lat[50] = math.Inf(1), math.Inf(1)
	if got := quantile(lat, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with two failures in 100 = %v, want +Inf", got)
	}
}

func TestBacklogDetection(t *testing.T) {
	const n = 2000
	steady := make([]float64, n)
	ramp := make([]float64, n)
	spiky := make([]float64, n)
	for i := range steady {
		steady[i] = 0.05 + 0.04*float64(i%7)/7
		ramp[i] = 0.05 + 20*float64(i)/n
		spiky[i] = 0.05
		if i%97 == 0 {
			spiky[i] = 8
		}
	}
	for _, c := range []struct {
		name  string
		waits []float64
		grows bool
	}{
		{"steady", steady, false},
		{"ramp", ramp, true},
		{"isolated spikes", spiky, false},
		{"too short", []float64{0, 100, 200}, false},
	} {
		if got := growingBacklog(c.waits, 1); got != c.grows {
			t.Errorf("%s: growingBacklog = %v, want %v", c.name, got, c.grows)
		}
	}
	lat := make([]float64, n)
	for i := range lat {
		lat[i] = 1
	}
	if !stepMeets(lat, steady, 10) {
		t.Error("steady step within the limit does not meet it")
	}
	if stepMeets(lat, ramp, 10) {
		t.Error("step with a growing backlog meets the limit")
	}
	if stepMeets(lat[:999], steady[:999], 10) {
		t.Error("step too short to support a p99 meets the limit")
	}
	lat[0] = math.Inf(1)
	for i := 1; i < 30; i++ {
		lat[i] = 11
	}
	if stepMeets(lat, steady, 10) {
		t.Error("step whose p99 exceeds the limit meets it")
	}
}

func TestLayerAttribution(t *testing.T) {
	table, err := parseLayers(layersText)
	if err != nil {
		t.Fatal(err)
	}
	const entry = "dtexl/internal/pipeline.rasterFrame"
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"main.main"}, ""},
		{[]string{"dtexl/internal/cache.(*Cache).AccessInto", "dtexl/internal/pipeline.(*scState).accessSample", entry}, "cache"},
		{[]string{"dtexl/internal/pipeline.(*scState).accessSample", "dtexl/internal/pipeline.(*scState).step", entry}, "texture"},
		{[]string{"runtime.mallocgc", "dtexl/internal/pipeline.(*scState).step", entry}, "sched"},
		{[]string{"dtexl/internal/pipeline.(*rasterizer).rasterizeTile", entry}, "other"},
	} {
		if got := table.layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}
