package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/pipeline"
	"dtexl/internal/serve"
	"dtexl/internal/sim"
	"dtexl/internal/trace"
)

// coldCells asks each benchmark for four policies, one at each of 1-4
// frames. Every cell is distinct, and each (benchmark, frames) pair
// appears once, so on a fresh server every request misses the scene
// store, the prepared-frame memo, the simulation memo and the result
// store. The policies rotate through every named policy.
func coldCells(scale int) ([]cell, error) {
	pols := core.PolicyNames()
	var cells []cell
	for i, bench := range trace.Aliases() {
		for f := 1; f <= 4; f++ {
			c, err := newCell(bench, pols[(4*i+f-1)%len(pols)], f, scale)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// coldServer is one round's fresh server over a fresh result store, as a
// fleet worker starts.
type coldServer struct {
	dir string
	hs  *httpServer
	cl  *client
}

func startCold(opt *options, scale int, tr *tracer) (*coldServer, error) {
	dir, err := os.MkdirTemp(opt.tmp, "cold-store-")
	if err != nil {
		return nil, err
	}
	st, err := sim.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	hs, err := startServer(serve.Config{Scale: scale, Seed: 1, Store: st}, tr)
	if err != nil {
		return nil, err
	}
	cs := &coldServer{dir: dir, hs: hs, cl: newClient(hs.url, 1)}
	resp, err := cs.cl.hc.Get(hs.url + "/healthz")
	if err != nil {
		cs.stop()
		return nil, err
	}
	resp.Body.Close()
	return cs, nil
}

func (cs *coldServer) stop() error {
	cs.cl.close()
	err := cs.hs.stop()
	if rerr := os.RemoveAll(cs.dir); err == nil {
		err = rerr
	}
	return err
}

// runCold sends dtexld requests that miss every memo tier, from one
// caller that waits for each reply (closed loop, one connection). A round
// is a fresh server and store answering every cold cell once, in an
// order drawn from the seed; an operation is one request.
func runCold(opt *options) (*outcome, error) {
	scale := 4
	if opt.short {
		scale = 8
	}
	cells, err := coldCells(scale)
	if err != nil {
		return nil, err
	}
	out := newOutcome(scale)
	refs, err := newReferences(scale, cells)
	if err != nil {
		return nil, err
	}
	var rc roundCosts
	var latencies []float64

	// round runs one round; with tr set it records spans. It returns the
	// checked results by cell index for the traced run's later phases.
	round := func(i int, tr *tracer) (cost, []*cellResult, error) {
		t := time.Now()
		cs, err := startCold(opt, scale, tr)
		if err != nil {
			return cost{}, nil, err
		}
		defer cs.stop()
		setup := time.Since(t)
		cs.cl.tracer = tr
		order := roundRand(opt.seed, i).Perm(len(cells))
		bodies := make([][]byte, len(cells))
		var lat []float64
		runtime.GC()
		m := startMeter()
		for _, ci := range order {
			t := time.Now()
			status, body, err := cs.cl.post(cells[ci].body)
			lat = append(lat, ms(time.Since(t)))
			out.attempted++
			if err != nil || status != http.StatusOK {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: status %d, %v\n", cells[ci].id(), status, err)
				continue
			}
			bodies[ci] = body
		}
		c := m.stop()
		if tr == nil {
			rc.setup = append(rc.setup, setup.Seconds())
			rc.retained = append(rc.retained, retainedMiB())
			latencies = append(latencies, lat...)
			rc.p50 = append(rc.p50, median(lat))
		}
		var results []cellResult
		byCell := make([]*cellResult, len(cells))
		for ci, b := range bodies {
			if b == nil {
				continue
			}
			r, err := checkResponse(out, refs, cells[ci], b)
			if err != nil {
				return cost{}, nil, err
			}
			results = append(results, r)
			byCell[ci] = &r
		}
		if tr != nil {
			var size int
			for _, b := range bodies {
				size += len(b)
			}
			serveSpans(out, tr, 0, 0, size, len(bodies))
		}
		if i == 0 && tr == nil {
			addModelCounters(out, results)
			if err := setDigest(out, nil, results); err != nil {
				return cost{}, nil, err
			}
		}
		if tr != nil {
			st, err := cs.hs.ready(cs.cl)
			if err != nil {
				return cost{}, nil, err
			}
			out.metrics["sim.misses"] = float64(st.SimsComputed)
		}
		return c, byCell, nil
	}

	extraSetup := func() (time.Duration, error) {
		t := time.Now()
		cs, err := startCold(opt, scale, nil)
		if err != nil {
			return 0, err
		}
		d := time.Since(t)
		return d, cs.stop()
	}
	err = rounds(time.Duration(opt.seconds*float64(time.Second)), func(i int) error {
		if err := rc.timeSetups(setupBatch, extraSetup); err != nil {
			return err
		}
		c, _, err := round(i, nil)
		rc.add(c)
		return err
	})
	if err == nil {
		err = rc.timeSetups(setupBatch, extraSetup)
	}
	if err != nil {
		return nil, err
	}
	rc.report(out)
	if opt.trace {
		out.metrics["loadgen.p90_ms"] = 0
		if tailSupported(len(latencies), 0.9) {
			out.metrics["loadgen.p90_ms"] = quantile(latencies, 0.9)
		}
		tr := newTracer()
		c, results, err := round(1, tr)
		if err != nil {
			return nil, err
		}
		out.metrics["tracing.overhead_s"] = c.wall.Seconds() - median(rc.wall)
		out.metrics["gc.cycles"] = float64(c.gcs)
		out.metrics["gc.pause_ms"] = ms(c.gcPause)
		if err := coldLayers(opt, out, tr, cells, results, scale); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// coldLayers attributes the traced round to layers the server reaches
// only inside sim: it records the round's results into a result store
// through the public store API, then replays every cell through the
// pipeline's public entry points.
func coldLayers(opt *options, out *outcome, tr *tracer, cells []cell, results []*cellResult, scale int) error {
	dir, err := os.MkdirTemp(opt.tmp, "cold-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := sim.OpenStore(dir)
	if err != nil {
		return err
	}
	so := sim.ScaledOptions(scale)
	var served []*pipeline.Metrics
	var rcs []replayCell
	for ci, c := range cells {
		r := results[ci]
		if r == nil {
			return fmt.Errorf("traced round: %s failed", c.id())
		}
		b, _, err := sim.MarshalCellResult(&sim.RunResult{Metrics: r.metrics, Energy: r.energy})
		if err != nil {
			return err
		}
		o := so
		o.Frames = c.frames
		tr.do("sim.Store.RecordCellResult", func() {
			err = st.RecordCellResult(o, sim.CellSpec{Bench: c.bench, Policy: c.policy.Name}, b)
		})
		if err != nil {
			return err
		}
		prof, err := trace.ProfileByAlias(c.bench)
		if err != nil {
			return err
		}
		cfg := pipeline.DefaultConfig()
		cfg.Width, cfg.Height = so.Width, so.Height
		c.policy.Apply(&cfg)
		rcs = append(rcs, replayCell{profile: prof, frames: c.frames, cfgs: []pipeline.Config{cfg}, seed: 1})
		served = append(served, r.metrics)
	}
	writes, n := tr.sum("sim.Store.RecordCellResult")
	out.metrics["store.writes"] = float64(n)
	out.metrics["store.write_ms"] = ms(writes) / float64(max(n, 1))
	got, err := replay(tr, out, rcs)
	if err != nil {
		return err
	}
	for i, c := range cells {
		if c.frames == 1 && !sameMetrics(got[i][0], served[i]) {
			out.fail("replay of %s differs from the served result", c.id())
		}
	}
	return nil
}
