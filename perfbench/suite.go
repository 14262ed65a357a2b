package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/energy"
	"dtexl/internal/pipeline"
	"dtexl/internal/render"
	"dtexl/internal/sim"
	"dtexl/internal/trace"
)

// imageScale is the resolution divisor of the image-identity check:
// 245x96, small enough to render every policy on every benchmark.
const imageScale = 8

// runSuite is the paper's whole evaluation as researchers run it: every
// experiment of sim.ExperimentIDs through one serial sim.Runner (540
// memoized simulations over 40 prepared front halves at 1/4 resolution,
// and bg-imr's 10 immediate-mode ones). One round is one experiment sweep
// on a fresh Runner; an operation is one experiment. The suite is the
// paper's fixed evaluation, so the seed selects nothing here.
func runSuite(opt *options) (*outcome, error) {
	scale := 4
	if opt.short {
		scale = 8
	}
	so := sim.ScaledOptions(scale)
	out := newOutcome(scale)
	ids := sim.ExperimentIDs()

	// Set-up is the Runner plus its scenes: tab1 characterises every
	// benchmark's scene, which generates and caches all of them.
	setup := func() (*sim.Runner, time.Duration, error) {
		t := time.Now()
		r := sim.NewRunner(so)
		err := r.RunExperiment("tab1", io.Discard)
		return r, time.Since(t), err
	}
	extraSetup := func() (time.Duration, error) {
		_, d, err := setup()
		return d, err
	}
	var rc roundCosts
	var tables []byte
	err := rounds(time.Duration(opt.seconds*float64(time.Second)), func(i int) error {
		if err := rc.timeSetups(setupBatch, extraSetup); err != nil {
			return err
		}
		// Only this round's Runner is live: the previous round's is
		// garbage, or a later round would run with a larger heap, and so
		// fewer collections, than the first.
		r, d, err := setup()
		if err != nil {
			return err
		}
		rc.setup = append(rc.setup, d.Seconds())
		runtime.GC()
		var buf bytes.Buffer
		// The Runner reports each simulation it computes; the gaps between
		// reports are the per-simulation times of the sweep.
		var simTimes []float64
		last := time.Now()
		r.Progress = func(string) {
			now := time.Now()
			simTimes = append(simTimes, ms(now.Sub(last)))
			last = now
		}
		m := startMeter()
		for _, id := range ids {
			err := r.RunExperiment(id, &buf)
			out.attempted++
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: experiment %s: %v\n", id, err)
			}
		}
		rc.add(m.stop())
		r.Progress = nil
		rc.p50 = append(rc.p50, median(simTimes))
		rc.retained = append(rc.retained, retainedMiB())
		runtime.KeepAlive(r)
		if i == 0 {
			tables = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), tables) {
			out.fail("round %d rendered different tables than round 0", i)
		}
		return nil
	})
	if err == nil {
		err = rc.timeSetups(setupBatch, extraSetup)
	}
	if err != nil {
		return nil, err
	}
	if err := checkSuite(opt, out, so, tables); err != nil {
		return nil, err
	}
	rc.report(out)
	if opt.trace {
		if err := traceSuite(out, so, setup, median(rc.wall)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkSuite sweeps every experiment once more, after the timed rounds,
// on a Runner that records each simulation it computes into a scratch
// result store, and runs bg-imr's immediate-mode simulations, which the
// Runner keeps out of its memo, itself. It tests the method's properties
// on all of those simulations and digests them with the rendered tables.
func checkSuite(opt *options, out *outcome, so sim.Options, tables []byte) error {
	dir, err := os.MkdirTemp(opt.tmp, "suite-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := sim.OpenStore(dir)
	if err != nil {
		return err
	}
	r := sim.NewRunner(so)
	r.Store = st
	var buf bytes.Buffer
	for _, id := range sim.ExperimentIDs() {
		if err := r.RunExperiment(id, &buf); err != nil {
			return fmt.Errorf("check sweep: %s: %w", id, err)
		}
	}
	if !bytes.Equal(buf.Bytes(), tables) {
		out.fail("the check sweep rendered different tables than the timed rounds")
	}
	sims, err := storedResults(dir)
	if err != nil {
		return err
	}
	if n := r.Timing().SimMisses; uint64(len(sims)) != n {
		out.fail("the check sweep computed %d simulations, its store holds %d", n, len(sims))
	}
	imr, err := imrResults(so)
	if err != nil {
		return err
	}
	sims = append(sims, imr...)
	fmt.Fprintf(os.Stderr, "perfbench: checking %d simulations: %d from the check sweep's store, %d immediate-mode\n",
		len(sims), len(sims)-len(imr), len(imr))
	for _, c := range sims {
		checkSim(out, c.id, c.metrics)
	}

	ctx := context.Background()
	byBench := map[string]map[string]*pipeline.Metrics{}
	for _, c := range sim.SuiteCells(so) {
		if c.UpperBound {
			continue
		}
		res, err := r.RunCell(ctx, c)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.ID(), err)
		}
		if byBench[c.Bench] == nil {
			byBench[c.Bench] = map[string]*pipeline.Metrics{}
		}
		byBench[c.Bench][c.Policy] = res.Metrics
	}
	for _, bench := range trace.Aliases() {
		pols := byBench[bench]
		base, fg, dtexl := pols[core.Baseline().Name], pols["FG-xshift2"], pols["DTexL(HLB-flp2)"]
		if base == nil || fg == nil || dtexl == nil {
			out.fail("%s: suite lacks baseline, FG-xshift2 or DTexL", bench)
			continue
		}
		for name, m := range pols {
			checkSameWork(out, bench+"/"+name, m, base)
			if m == dtexl || strings.HasPrefix(name, "CG-") {
				for _, ref := range []*pipeline.Metrics{base, fg} {
					if m.L2.Accesses >= ref.L2.Accesses {
						out.fail("%s/%s: %d L2 accesses, not fewer than %d", bench, name, m.L2.Accesses, ref.L2.Accesses)
					}
				}
			}
		}
	}
	if err := checkImages(out, so.Seed); err != nil {
		return err
	}
	addModelCounters(out, sims)
	return setDigest(out, tables, sims)
}

// storedResults reads back every result in a sim.Store directory: one
// JSON file per simulation, {"key": …, "sum": …, "result": …}, whose key
// names the benchmark and whose result holds the Metrics and energy. The
// benchmark is each result's id.
func storedResults(dir string) ([]cellResult, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var cells []cellResult
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		var e struct {
			Key    struct{ Alias string } `json:"key"`
			Sum    string                 `json:"sum"`
			Result json.RawMessage        `json:"result"`
		}
		var res struct {
			Metrics *pipeline.Metrics
			Energy  energy.Breakdown
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("store entry %s: %w", filepath.Base(name), err)
		}
		if e.Sum != sim.ResultSum(e.Result) {
			return nil, fmt.Errorf("store entry %s: checksum mismatch", filepath.Base(name))
		}
		if err := json.Unmarshal(e.Result, &res); err != nil || res.Metrics == nil || e.Key.Alias == "" {
			return nil, fmt.Errorf("store entry %s: no result or benchmark: %v", filepath.Base(name), err)
		}
		cells = append(cells, cellResult{id: e.Key.Alias, metrics: res.Metrics, energy: res.Energy})
	}
	return cells, nil
}

// imrResults runs bg-imr's immediate-mode simulations, one per benchmark
// on its frame-0 scene, as the Runner does. They carry no energy.
func imrResults(so sim.Options) ([]cellResult, error) {
	var cells []cellResult
	for _, bench := range trace.Aliases() {
		prof, err := trace.ProfileByAlias(bench)
		if err != nil {
			return nil, err
		}
		scenes, err := trace.NewSceneStore().Animation(prof, so.Width, so.Height, so.Seed, 1)
		if err != nil {
			return nil, err
		}
		cfg := pipeline.DefaultConfig()
		cfg.Width, cfg.Height = so.Width, so.Height
		m, err := pipeline.RunIMR(scenes[0], cfg)
		if err != nil {
			return nil, fmt.Errorf("IMR %s: %w", bench, err)
		}
		cells = append(cells, cellResult{id: bench + "/IMR", metrics: m})
	}
	return cells, nil
}

// checkSameWork tests §III-C's invariant: scheduling changes when and
// where quads run, never which quads are shaded or culled, which texture
// samples they take or which L1 lines those samples touch.
func checkSameWork(out *outcome, id string, m, ref *pipeline.Metrics) {
	type count struct {
		name   string
		got, w uint64
	}
	for _, c := range []count{
		{"quads shaded", m.Events.QuadsShaded, ref.Events.QuadsShaded},
		{"quads culled", m.Events.QuadsCulled, ref.Events.QuadsCulled},
		{"texture samples", m.Events.TextureSamples, ref.Events.TextureSamples},
		{"L1 accesses", m.L1Tex.Accesses, ref.L1Tex.Accesses},
	} {
		if c.got != c.w {
			out.fail("%s: %s %d, baseline %d", id, c.name, c.got, c.w)
		}
	}
}

// checkImages renders every benchmark under every named policy at 1/8
// resolution and requires byte-identical images and identical work.
func checkImages(out *outcome, seed uint64) error {
	o := sim.ScaledOptions(imageScale)
	for _, bench := range trace.Aliases() {
		prof, err := trace.ProfileByAlias(bench)
		if err != nil {
			return err
		}
		scene := trace.GenerateFrame(prof, o.Width, o.Height, seed, 0)
		var refImg *render.Framebuffer
		var ref *pipeline.Metrics
		for _, name := range core.PolicyNames() {
			pol, err := core.PolicyByName(name)
			if err != nil {
				return err
			}
			cfg := pipeline.DefaultConfig()
			cfg.Width, cfg.Height = o.Width, o.Height
			pol.Apply(&cfg)
			cfg.RenderTarget = render.NewFramebuffer(o.Width, o.Height)
			m, err := pipeline.Run(scene, cfg)
			if err != nil {
				return fmt.Errorf("image %s/%s: %w", bench, name, err)
			}
			if refImg == nil {
				refImg, ref = cfg.RenderTarget, m
				continue
			}
			if !cfg.RenderTarget.Equal(refImg) {
				out.fail("image %s/%s differs from %s's", bench, name, core.PolicyNames()[0])
			}
			checkSameWork(out, "image "+bench+"/"+name, m, ref)
		}
	}
	return nil
}

// traceSuite is the suite's traced run: one traced sweep on a fresh
// Runner, a render pass over its full memo, memo-hit timing, and a replay
// of the suite cells through the pipeline's public entry points.
func traceSuite(out *outcome, so sim.Options, setup func() (*sim.Runner, time.Duration, error), untraced float64) error {
	tr := newTracer()
	r, _, err := setup()
	if err != nil {
		return err
	}
	runtime.GC()
	m := startMeter()
	for _, id := range sim.ExperimentIDs() {
		tr.do("sim.Runner.RunExperiment", func() { err = r.RunExperiment(id, io.Discard) })
		if err != nil {
			return err
		}
	}
	c := m.stop()
	out.metrics["tracing.overhead_s"] = c.wall.Seconds() - untraced
	out.metrics["gc.cycles"] = float64(c.gcs)
	out.metrics["gc.pause_ms"] = ms(c.gcPause)
	t := r.Timing()
	out.metrics["sim.hits"] = float64(t.SimHits)
	out.metrics["sim.misses"] = float64(t.SimMisses)

	// With every simulation memoized, a second sweep costs the table
	// assembly and the memo lookups alone.
	rendered := tr.do("sim.render", func() {
		for _, id := range sim.ExperimentIDs() {
			if err == nil {
				err = r.RunExperiment(id, io.Discard)
			}
		}
	})
	if err != nil {
		return err
	}
	out.metrics["sim.render_ms"] = ms(rendered)

	cells := sim.SuiteCells(so)
	hit, err := memoHitMicros(tr, len(cells), func(i int) error {
		_, err := r.RunCell(context.Background(), cells[i])
		return err
	})
	if err != nil {
		return err
	}
	out.metrics["sim.hit_us"] = hit

	var rcs []replayCell
	var want [][]*pipeline.Metrics
	for _, bench := range trace.Aliases() {
		prof, err := trace.ProfileByAlias(bench)
		if err != nil {
			return err
		}
		rc := replayCell{profile: prof, frames: 1, seed: so.Seed}
		var cellMetrics []*pipeline.Metrics
		for _, c := range cells {
			if c.Bench != bench {
				continue
			}
			pol, ub, err := c.ResolvePolicy()
			if err != nil {
				return err
			}
			cfg := pipeline.DefaultConfig()
			cfg.Width, cfg.Height = so.Width, so.Height
			pol.Apply(&cfg)
			if ub {
				core.ApplyUpperBound(&cfg)
			}
			rc.cfgs = append(rc.cfgs, cfg)
			res, err := r.RunCell(context.Background(), c)
			if err != nil {
				return err
			}
			cellMetrics = append(cellMetrics, res.Metrics)
		}
		rcs = append(rcs, rc)
		want = append(want, cellMetrics)
	}
	got, err := replay(tr, out, rcs)
	if err != nil {
		return err
	}
	for i := range got {
		for j := range got[i] {
			if !sameMetrics(got[i][j], want[i][j]) {
				out.fail("replay of %s config %d differs from the suite's result", rcs[i].profile.Alias, j)
			}
		}
	}
	// The replay covers the suite cells once each; the memo's own
	// counters say how the sweep shared prepared frames.
	out.metrics["prep.built"] = float64(t.PrepMisses)
	out.metrics["prep.runs_per_built"] = ratio(float64(t.PrepHits+t.PrepMisses), float64(t.PrepMisses))
	return nil
}
