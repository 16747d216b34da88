package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The host's speed drifts by 10–20% over tens of seconds and more (the
// vCPUs are shared with other tenants), and a run lasts less than a
// drift: sets of runs of the same code moved by 8–20% in raw throughput,
// past the bounds a change is held to. So every run also times a fixed
// reference kernel in windows interleaved with the workload, and the
// speed figures are expressed against the reference's speed over the same
// run.
//
// The reference's median rate over the run, over its rate on the quiet
// host the nominal rates were taken on (README.md), is the run's scale.
// A figure in reference units (ticks/ref_s, ref_ns) is the raw figure
// brought back to the quiet host: divided by the scale raised to the
// workload's elasticity, which is how strongly that figure was measured
// to follow the scale. A host slowed for the whole run slows the workload
// and the reference together and the corrected figure stays put; a
// change to the program moves the workload alone and shows in full.
//
// The kernel draws normally distributed values and sorts them: branchy,
// allocating general-purpose code from the standard library, so no change
// to the program can move it. Its speed followed the E-suite's through
// the host's drifts (correlation 0.85 over 20-second spans); a kernel of
// dependent floating-point divides and square roots followed it at 0.5
// and made the spread worse instead of better.

// refSortLen is how many values one unit draws and sorts.
const refSortLen = 2000

// refModel is, by the number of goroutines running the reference at
// once, the reference units each goroutine completed per wall second
// (wall) and per second of the process's CPU time (cpu) on the quiet
// host, and the elasticities of the workload's tick rate (wallExp) and
// CPU per tick (cpuExp) to the scale. One goroutine runs beside the
// single-threaded suite, whose figures follow the reference one to one.
// Two run for the network workloads, whose driving goroutine and server
// keep two threads busy; their tick rate moved as the scale to the power
// 1.7 and their CPU per tick as the power −1.4 over thirty ingest runs at
// scales from 0.79 to 1.17 (correlations 0.94 and 0.95): a closed loop
// between two processes also waits on cross-process wake-ups, which a
// slower host slows as well.
var refModel = map[int]struct{ wall, cpu, wallExp, cpuExp float64 }{
	1: {4400, 4400, 1, 1},
	2: {4100, 4200, 1.7, 1.4},
}

// refKernel runs the reference on a fixed set of goroutines, each with a
// generator of its own seeded the same way in every run.
type refKernel struct {
	rngs []*rand.Rand
}

func newRefKernel(procs int) *refKernel {
	k := &refKernel{}
	for i := 0; i < procs; i++ {
		k.rngs = append(k.rngs, rand.New(rand.NewSource(int64(i+1))))
	}
	return k
}

// refUnit is one unit of reference work.
func refUnit(r *rand.Rand) float64 {
	xs := make([]float64, refSortLen)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	sort.Float64s(xs)
	return xs[refSortLen/2]
}

// refSample is one reference window's outcome.
type refSample struct {
	wallRate float64 // units per wall second per goroutine
	cpuRate  float64 // units per second of the process's CPU time
}

// run works every goroutine for d and returns the window's rates. It runs
// while nothing else of the benchmark does, so the process's CPU time
// over the window is the reference's own.
func (k *refKernel) run(d time.Duration) (refSample, error) {
	cpu0, err := selfCPU()
	if err != nil {
		return refSample{}, err
	}
	start := time.Now()
	deadline := start.Add(d)
	units := make([]int64, len(k.rngs))
	var wg sync.WaitGroup
	for i, r := range k.rngs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink float64
			for n := int64(1); ; n++ {
				sink += refUnit(r)
				if !time.Now().Before(deadline) {
					units[i] = n
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	cpu1, err := selfCPU()
	if err != nil {
		return refSample{}, err
	}
	var total int64
	for _, n := range units {
		total += n
	}
	if cpu1 <= cpu0 {
		return refSample{}, fmt.Errorf("reference window used no CPU time")
	}
	return refSample{
		wallRate: float64(total) / float64(len(units)) / wall.Seconds(),
		cpuRate:  float64(total) / (cpu1 - cpu0).Seconds(),
	}, nil
}

// selfCPU is this process's user and system CPU time so far.
func selfCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// refScale returns the run's scale from the reference windows on procs
// goroutines, and the factors that bring a raw tick rate (divide by
// wallDiv) and a raw CPU time per tick (multiply by cpuMul) back to the
// quiet host. The scale is the median over the whole run, because the
// host's speed also flickers by about ±10% from one window to the next,
// too briefly for one reference window to say what the workload beside it
// met, while the drifts it corrects for last tens of seconds.
func refScale(procs int, samples []refSample) (wall, cpu, wallDiv, cpuMul float64) {
	walls := make([]float64, len(samples))
	cpus := make([]float64, len(samples))
	for i, s := range samples {
		walls[i], cpus[i] = s.wallRate, s.cpuRate
	}
	m := refModel[procs]
	wall, cpu = median(walls)/m.wall, median(cpus)/m.cpu
	return wall, cpu, math.Pow(wall, m.wallExp), math.Pow(cpu, m.cpuExp)
}
