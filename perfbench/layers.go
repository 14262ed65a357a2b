package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"dtexl/internal/cache"
	"dtexl/internal/pipeline"
	"dtexl/internal/trace"
)

// tracer sums the traced run's spans, each a timed call into a layer, by
// name. It is safe for concurrent use: server handlers and client workers
// record spans from their own goroutines.
type tracer struct {
	mu    sync.Mutex
	total map[string]time.Duration
	count map[string]int
}

func newTracer() *tracer {
	return &tracer{total: map[string]time.Duration{}, count: map[string]int{}}
}

// record adds a finished span.
func (t *tracer) record(name string, dur time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total[name] += dur
	t.count[name]++
}

// sum returns the total duration and count of the spans named name.
func (t *tracer) sum(name string) (time.Duration, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total[name], t.count[name]
}

// do runs f as a span named name and returns its duration.
func (t *tracer) do(name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.record(name, d)
	return d
}

// replayCell is one simulation to replay through the pipeline's public
// entry points: a benchmark at frames frames under each of cfgs, which
// share one front-half configuration.
type replayCell struct {
	profile trace.Profile
	frames  int
	cfgs    []pipeline.Config
	seed    uint64
}

// replay calls, for each cell, the public functions the simulator calls
// inside sim.Runner, on the same inputs, with a span around each: scene
// generation, geometry, binning, frame preparation and the raster phase.
// A multi-frame cell is replayed frame by frame through PrepareFrame and
// RunPrepared, where the server runs RunFrames: RunFrames builds each
// frame's coverage inside its raster phase, with no boundary to time it
// at, and starts each frame's raster phase from the previous frame's
// caches, which changes simulated hits but not the work's shape. replay
// profiles the CPU meanwhile, attributes the raster phase's samples to
// its sub-layers through the function -> layer table, and returns the
// replayed metrics of the single-frame cells, one per config.
func replay(tr *tracer, o *outcome, cells []replayCell) ([][]*pipeline.Metrics, error) {
	var (
		prof             bytes.Buffer
		raster           time.Duration
		built, runs      int
		prims, bins      int
		covered, quads   uint64
		samples, mallocs uint64
		geo, tiling, cov time.Duration
	)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	profiling := true
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()
	var ms0, ms1 runtime.MemStats
	out := make([][]*pipeline.Metrics, len(cells))
	for ci, c := range cells {
		cfg0 := c.cfgs[0]
		var scenes []*trace.Scene
		var err error
		tr.do("trace.SceneStore.Animation", func() {
			scenes, err = trace.NewSceneStore().Animation(c.profile, cfg0.Width, cfg0.Height, c.seed, c.frames)
		})
		if err != nil {
			return nil, err
		}
		for _, sc := range scenes {
			// The front half, layer by layer, on a fresh hierarchy.
			// PrepareFrame repeats geometry and binning; its CoverageTime
			// is the coverage share.
			hier := cache.NewHierarchy(cfg0.Hierarchy)
			var g pipeline.GeometryResult
			geo += tr.do("pipeline.RunGeometry", func() { g = pipeline.RunGeometry(sc, hier, cfg0) })
			var b *pipeline.Binning
			tiling += tr.do("pipeline.BinPrimitives", func() { b = pipeline.BinPrimitives(g.Primitives, hier, cfg0) })
			prims += len(g.Primitives)
			for _, l := range b.Lists {
				bins += len(l)
			}
			var p *pipeline.PreparedFrame
			tr.do("pipeline.PrepareFrame", func() { p, err = pipeline.PrepareFrame(sc, cfg0) })
			if err != nil {
				return nil, err
			}
			cov += p.CoverageTime
			built++
			for j, cfg := range c.cfgs {
				var m *pipeline.Metrics
				runtime.ReadMemStats(&ms0)
				raster += tr.do("pipeline.RunPrepared", func() { m, err = pipeline.RunPrepared(p, cfg) })
				runtime.ReadMemStats(&ms1)
				if err != nil {
					return nil, err
				}
				mallocs += ms1.Mallocs - ms0.Mallocs
				runs++
				quads += m.Events.QuadsShaded + m.Events.QuadsCulled
				samples += m.Events.TextureSamples
				if j == 0 {
					covered += m.Events.QuadsShaded + m.Events.QuadsCulled
				}
				if c.frames == 1 {
					out[ci] = append(out[ci], m)
				}
			}
		}
	}
	pprof.StopCPUProfile()
	profiling = false

	gen, _ := tr.sum("trace.SceneStore.Animation")
	o.metrics["trace.gen_ms"] = ms(gen)
	scenes := 0
	for _, c := range cells {
		scenes += c.frames
	}
	o.metrics["trace.scenes"] = float64(scenes)
	o.metrics["geometry.ms"] = ms(geo)
	o.metrics["geometry.prims"] = float64(prims)
	o.metrics["tiling.ms"] = ms(tiling)
	o.metrics["tiling.bin_entries"] = float64(bins)
	o.metrics["coverage.ms"] = ms(cov)
	o.metrics["coverage.quads"] = float64(covered)
	o.metrics["prep.built"] = float64(built)
	o.metrics["prep.runs_per_built"] = ratio(float64(runs), float64(built))
	o.metrics["raster.ms"] = ms(raster)
	o.metrics["raster.sims"] = float64(runs)
	o.metrics["raster.quads"] = float64(quads)
	o.metrics["raster.tex_samples"] = float64(samples)
	o.metrics["raster.ns_per_sample"] = ratio(float64(raster.Nanoseconds()), float64(samples))
	o.metrics["raster.allocs_per_sim"] = ratio(float64(mallocs), float64(runs))

	byLayer, err := attributeRaster(prof.Bytes(), layersText)
	if err != nil {
		return nil, err
	}
	o.metrics["sched.cpu_s"] = byLayer["sched"]
	o.metrics["texture.cpu_s"] = byLayer["texture"]
	o.metrics["cache.cpu_s"] = byLayer["cache"]
	o.metrics["dram.cpu_s"] = byLayer["dram"]
	o.metrics["raster.other_cpu_s"] = byLayer["other"]
	sub := byLayer["sched"] + byLayer["texture"] + byLayer["cache"] + byLayer["dram"] + byLayer["other"]
	fmt.Fprintf(os.Stderr, "perfbench: raster %.3f s by spans, %.3f s by profile samples\n", raster.Seconds(), sub)
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memoHitMicros times n calls of hit, each answered from a memo, and
// returns the mean in microseconds.
func memoHitMicros(tr *tracer, n int, hit func(i int) error) (float64, error) {
	var err error
	var total time.Duration
	for i := 0; i < n && err == nil; i++ {
		d := tr.do("sim.Runner.RunOneCtx", func() { err = hit(i) })
		total += d
	}
	return us(total) / float64(n), err
}
