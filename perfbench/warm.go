package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"dtexl/internal/core"
	"dtexl/internal/serve"
	"dtexl/internal/sim"
	"dtexl/internal/trace"
)

// warmPlan sizes the warm workload. The nominal rate sits well below the
// saturation rate measured on a 2-vCPU box (README.md), so its latencies
// describe a server that keeps up.
type warmPlan struct {
	bursts     int       // closed-loop bursts per round; wall_s is their median
	burst      int       // requests per burst
	nominal    int       // open-loop requests at nominalRPS
	nominalRPS float64   // requests per second
	ladder     []float64 // open-loop rates tried for max_rps, ascending
	stepN      int       // requests per ladder step
	limit      float64   // p99 latency limit, ms
	conns      int       // client connections: nproc
}

func newWarmPlan(short bool) warmPlan {
	p := warmPlan{
		bursts:     5,
		burst:      2000,
		nominal:    12000,
		nominalRPS: 3000,
		ladder:     []float64{1000, 2000, 4000, 8000, 16000},
		stepN:      2000,
		limit:      10,
		conns:      runtime.NumCPU(),
	}
	if short {
		p.bursts, p.burst, p.nominal, p.ladder, p.stepN = 2, 200, 1000, []float64{1000, 2000}, 1000
	}
	return p
}

// warmCells are the cells the warm server holds in memo: every benchmark
// under the baseline, the decoupled baseline and DTexL, one frame each.
func warmCells(scale int) ([]cell, error) {
	var cells []cell
	for _, bench := range trace.Aliases() {
		for _, pol := range []string{core.Baseline().Name, core.BaselineDecoupled().Name, core.DTexL().Name} {
			c, err := newCell(bench, pol, 1, scale)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// warmServer is a server whose memo holds every warm cell, and the hash
// each cell's answer must have.
type warmServer struct {
	hs   *httpServer
	cl   *client
	want []uint64
}

func (ws *warmServer) stop() error {
	ws.cl.close()
	return ws.hs.stop()
}

// runWarm sends dtexld requests for cells already in memo over at most
// nproc connections, so no simulation runs and only the serving path and
// memo lookups work. A round is a fresh server filled with the warm cells
// (set-up), closed-loop bursts (wall_s, p50_ms) and an open-loop schedule
// at the nominal rate (the loadgen.* latencies); an operation is one
// request. The seed draws the cell of every request and the arrival
// times. At the nominal rate the server is mostly idle, so the host's
// thread wake-ups, not the serving path, set the latency: its median moved
// by up to a quarter between runs whose burst times agreed within 5%.
func runWarm(opt *options) (*outcome, error) {
	scale := 4
	if opt.short {
		scale = 8
	}
	plan := newWarmPlan(opt.short)
	cells, err := warmCells(scale)
	if err != nil {
		return nil, err
	}
	out := newOutcome(scale)
	refs, err := newReferences(scale, cells)
	if err != nil {
		return nil, err
	}
	var rc roundCosts
	var latencies, lateness []float64

	// start brings up a server and fills its memo with one request per
	// cell, checking each answer against a direct simulation.
	start := func(wrapWith *tracer, first bool) (*warmServer, time.Duration, error) {
		t := time.Now()
		hs, err := startServer(serve.Config{Scale: scale, Seed: 1}, wrapWith)
		if err != nil {
			return nil, 0, err
		}
		ws := &warmServer{hs: hs, cl: newClient(hs.url, plan.conns), want: make([]uint64, len(cells))}
		bodies := make([][]byte, len(cells))
		for i, c := range cells {
			status, body, err := ws.cl.post(c.body)
			if err == nil && status != 200 {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			if err != nil {
				ws.stop()
				return nil, 0, fmt.Errorf("filling %s: %w", c.id(), err)
			}
			bodies[i] = body
			ws.want[i] = bodyHash(body)
		}
		setup := time.Since(t)
		var results []cellResult
		for i, b := range bodies {
			r, err := checkResponse(out, refs, cells[i], b)
			if err != nil {
				ws.stop()
				return nil, 0, err
			}
			results = append(results, r)
		}
		if first {
			addModelCounters(out, results)
			if err := setDigest(out, nil, results); err != nil {
				ws.stop()
				return nil, 0, err
			}
		}
		return ws, setup, nil
	}

	// schedule draws a request sequence and its inter-arrival gaps: zero
	// gaps for a burst, exponential ones (Poisson arrivals) at rate rps.
	schedule := func(rng *rand.Rand, n int, rps float64) ([]int, []time.Duration) {
		seq := make([]int, n)
		gaps := make([]time.Duration, n)
		for i := range seq {
			seq[i] = rng.IntN(len(cells))
			if rps > 0 {
				gaps[i] = time.Duration(rng.ExpFloat64() / rps * float64(time.Second))
			}
		}
		return seq, gaps
	}

	// verify counts the schedule's requests and checks every answer.
	verify := func(ws *warmServer, shots []shot) {
		for i := range shots {
			s := &shots[i]
			out.attempted++
			if !s.ok() {
				out.failed++
				continue
			}
			if s.hash != ws.want[s.cell] {
				out.fail("%s: a warm answer differs from the checked one", cells[s.cell].id())
			}
		}
	}

	// round returns the whole timed region's cost (bursts plus nominal
	// schedule) and the median wall time of its bursts.
	round := func(i int, tr *tracer) (cost, float64, error) {
		ws, setup, err := start(tr, i == 0 && tr == nil)
		if err != nil {
			return cost{}, 0, err
		}
		defer ws.stop()
		ws.cl.tracer = tr
		rng := roundRand(opt.seed, i)
		var before serve.ReadyState
		var h0 time.Duration
		var n0 int
		if tr != nil {
			if before, err = ws.hs.ready(ws.cl); err != nil {
				return cost{}, 0, err
			}
			// The fill's requests are set-up; only the timed ones count.
			h0, n0 = tr.sum("serve.Handler.ServeHTTP")
		}
		var walls []float64
		var shots []shot
		runtime.GC()
		m := startMeter()
		for b := 0; b < plan.bursts; b++ {
			seq, gaps := schedule(rng, plan.burst, 0)
			t := time.Now()
			shots = append(shots, fire(ws.cl, cells, seq, gaps, plan.conns)...)
			walls = append(walls, time.Since(t).Seconds())
		}
		seq, gaps := schedule(rng, plan.nominal, plan.nominalRPS)
		nominal := fire(ws.cl, cells, seq, gaps, plan.conns)
		c := m.stop()
		// A burst request's latency runs from its send: in a closed loop
		// nothing waits behind a slow reply but its own caller.
		burst := make([]float64, len(shots))
		for i, s := range shots {
			burst[i] = inf
			if s.ok() {
				burst[i] = ms(s.end - s.start)
			}
		}
		shots = append(shots, nominal...)
		verify(ws, shots)
		if tr == nil {
			rc.setup = append(rc.setup, setup.Seconds())
			rc.retained = append(rc.retained, retainedMiB())
			rc.p50 = append(rc.p50, median(burst))
			for i := range nominal {
				latencies = append(latencies, nominal[i].latency())
				lateness = append(lateness, ms(nominal[i].sent-nominal[i].due))
			}
			return c, median(walls), nil
		}
		after, err := ws.hs.ready(ws.cl)
		if err != nil {
			return cost{}, 0, err
		}
		var size int
		for _, s := range shots {
			size += s.size
		}
		serveSpans(out, tr, h0, n0, size, len(shots))
		// Each flight looks the cell up in the memo once; coalesced
		// requests join a flight without a lookup.
		flights := after.FlightsStarted - before.FlightsStarted
		computed := after.SimsComputed - before.SimsComputed
		out.metrics["sim.hits"] = float64(uint64(flights) - computed)
		if computed != 0 {
			out.fail("warm round computed %d simulations", computed)
		}
		return c, median(walls), nil
	}

	err = rounds(time.Duration(opt.seconds*float64(time.Second)), func(i int) error {
		c, burst, err := round(i, nil)
		c.wall = time.Duration(burst * float64(time.Second))
		rc.add(c)
		return err
	})
	if err != nil {
		return nil, err
	}
	rc.report(out)
	if !opt.trace {
		return out, nil
	}

	out.metrics["loadgen.p50_ms"] = quantile(latencies, 0.5)
	out.metrics["loadgen.p90_ms"] = quantile(latencies, 0.9)
	out.metrics["loadgen.p99_ms"] = 0
	if tailSupported(len(latencies), 0.99) {
		out.metrics["loadgen.p99_ms"] = quantile(latencies, 0.99)
	}
	out.metrics["loadgen.late_ms"] = quantile(lateness, 0.99)
	out.metrics["loadgen.max_rps"] = 0

	tr := newTracer()
	c, burst, err := round(1, tr)
	if err != nil {
		return nil, err
	}
	out.metrics["tracing.overhead_s"] = burst - median(rc.wall)
	out.metrics["gc.cycles"] = float64(c.gcs)
	out.metrics["gc.pause_ms"] = ms(c.gcPause)

	// The rate ladder, on a fresh untraced server: the highest rate whose
	// p99 meets the limit without a growing backlog, stopping at the first
	// that does not.
	ws, _, err := start(nil, false)
	if err != nil {
		return nil, err
	}
	defer ws.stop()
	rng := roundRand(opt.seed, ladderRound)
	for _, rps := range plan.ladder {
		seq, gaps := schedule(rng, plan.stepN, rps)
		shots := fire(ws.cl, cells, seq, gaps, plan.conns)
		verify(ws, shots)
		lat := make([]float64, len(shots))
		waits := make([]float64, len(shots))
		for i := range shots {
			lat[i] = shots[i].latency()
			waits[i] = ms(shots[i].start - shots[i].sent)
		}
		meets := stepMeets(lat, waits, plan.limit)
		fmt.Fprintf(os.Stderr, "perfbench: ladder %.0f/s: p99 %.3f ms, backlog grew %v\n",
			rps, quantile(lat, 0.99), growingBacklog(waits, plan.limit/10))
		if !meets {
			break
		}
		out.metrics["loadgen.max_rps"] = rps
	}

	// Memo-hit time of the simulation layer itself, on a Runner holding
	// the same cells.
	so := sim.ScaledOptions(scale)
	r := sim.NewRunner(so)
	for _, c := range cells {
		if _, err := r.RunOneWith(c.bench, c.policy, nil); err != nil {
			return nil, err
		}
	}
	hit, err := memoHitMicros(tr, 20*len(cells), func(i int) error {
		c := cells[i%len(cells)]
		_, err := r.RunOneWith(c.bench, c.policy, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.metrics["sim.hit_us"] = hit
	return out, nil
}
