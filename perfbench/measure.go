package main

import (
	"math/rand/v2"
	"runtime"
	"syscall"
	"time"
)

// cost is what one timed region consumed.
type cost struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes allocated
	gcs       uint32
	gcPause   time.Duration
}

// meter measures one timed region: wall time, process CPU time (user +
// system, so work moved onto other goroutines still counts) and the Go
// runtime's allocation and GC counters.
type meter struct {
	t0  time.Time
	c0  time.Duration
	ms0 runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms0)
	m.c0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() cost {
	wall := time.Since(m.t0)
	c := cpuTime() - m.c0
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	return cost{
		wall:    wall,
		cpu:     c,
		alloc:   ms1.TotalAlloc - m.ms0.TotalAlloc,
		gcs:     ms1.NumGC - m.ms0.NumGC,
		gcPause: time.Duration(ms1.PauseTotalNs - m.ms0.PauseTotalNs),
	}
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// retainedMiB forces a collection and returns the live heap. Callers keep
// the structure whose footprint they measure reachable across the call.
func retainedMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// rounds runs round until starting another would overrun budget, and at
// least once, so every run attempts whole rounds of the same operations.
func rounds(budget time.Duration, round func(i int) error) error {
	start := time.Now()
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		t := time.Now()
		if err := round(i); err != nil {
			return err
		}
		last = time.Since(t)
	}
	return nil
}

// setupBatch is how many set-ups a workload whose set-up takes under a
// millisecond times before each round and once more after the last,
// beside the one each round does. The host's speed drifts over seconds,
// so batches spread over the whole run give a steadier median than as
// many set-ups timed back to back.
const setupBatch = 50

// timeSetups times n set-ups, each undone before the next, and adds them
// to the set-up samples.
func (rc *roundCosts) timeSetups(n int, setup func() (time.Duration, error)) error {
	for i := 0; i < n; i++ {
		d, err := setup()
		if err != nil {
			return err
		}
		rc.setup = append(rc.setup, d.Seconds())
	}
	return nil
}

// roundRand is the random source of one round's inputs: the same seed
// and round index give the same inputs, however many rounds ran before.
func roundRand(seed uint64, round int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, uint64(round)))
}

// ladderRound is the round index of the warm workload's rate ladder.
const ladderRound = 1 << 20

// roundCosts collects per-round costs and reports their medians.
type roundCosts struct {
	setup, wall, cpu, alloc, retained []float64
	// p50 holds each round's median operation time, ms. The median over
	// rounds keeps one round that a stall of the host hit from moving
	// the result.
	p50 []float64
}

func (rc *roundCosts) add(c cost) {
	rc.wall = append(rc.wall, c.wall.Seconds())
	rc.cpu = append(rc.cpu, c.cpu.Seconds())
	rc.alloc = append(rc.alloc, float64(c.alloc)/(1<<20))
}

func (rc *roundCosts) report(o *outcome) {
	o.metrics["setup_s"] = median(rc.setup)
	o.metrics["wall_s"] = median(rc.wall)
	o.metrics["cpu_s"] = median(rc.cpu)
	o.metrics["alloc_mib"] = median(rc.alloc)
	o.metrics["retained_mib"] = median(rc.retained)
	o.metrics["p50_ms"] = median(rc.p50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
