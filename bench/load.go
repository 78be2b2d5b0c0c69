package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hirep/internal/pkc"
	"hirep/internal/xrand"
)

// This file is the workload generator: everything a run's inputs depend on is
// drawn here from -seed (subject ids, which subjects are hot, the op order and
// mix), and the two loop shapes every live workload is driven by. The programs
// under test see only the generated inputs.

// Seeds recorded in BENCHMARK.json's workload notes: defaultSeed is what a
// bare `bench/run.sh` uses; heldOutSeed is kept for later claims and is not
// used while a change is being written.
const (
	defaultSeed = 2006
	heldOutSeed = 60013
)

// zipfSkew is the subject-popularity skew of the live workloads.
const zipfSkew = 1.1

// genSubjects draws n subject ids. A subject is only ever an identifier to the
// agents, so it needs no key pair behind it.
func genSubjects(rng *xrand.RNG, n int) []pkc.NodeID {
	out := make([]pkc.NodeID, n)
	for i := range out {
		for j := 0; j < pkc.NodeIDSize; j += 8 {
			v := rng.Uint64()
			for k := 0; k < 8 && j+k < pkc.NodeIDSize; k++ {
				out[i][j+k] = byte(v >> (8 * k))
			}
		}
	}
	return out
}

// picker draws subject indexes with zipf popularity; which subjects are the
// popular ones is itself a seeded permutation.
type picker struct {
	z    *rand.Zipf
	perm []int
}

func newPicker(rng *xrand.RNG, n int) *picker {
	return &picker{z: rng.Zipf(zipfSkew, uint64(n-1)), perm: rng.Split("hot").Perm(n)}
}

func (p *picker) next() int { return p.perm[p.z.Uint64()] }

// A phase is cut into windows, and a figure is the median over windows of the
// window's own figure, so a scheduling hiccup of the shared host moves one
// window, not the result. A window is long enough to hold a hundred ops or
// more: one second for transactions and reads, four for 256-report batches.

// opResult is one completed operation of a loop.
type opResult struct {
	at float64 // when it was due (open loop) or issued (closed loop), seconds into the phase
	ms float64 // latency: from due time in an open loop, from issue in a closed loop
	ok bool
}

// sample is one reading of the phase's progress.
type sample struct {
	at    float64 // seconds into the phase
	done  int64   // ops completed so far
	cpuMs float64 // process CPU (user+system) so far
}

// phase is the outcome of one loop.
type phase struct {
	window  float64 // seconds
	ops     []opResult
	samples []sample  // one per window boundary, first at 0
	lateMs  []float64 // open loop only: how late the generator dispatched each op
}

func (p phase) failed() int64 {
	var n int64
	for _, o := range p.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// byWindow groups the ops' latencies by the window each was due or issued in.
func byWindow(ops []opResult, window float64) map[int][]float64 {
	out := map[int][]float64{}
	for _, o := range ops {
		w := int(o.at / window)
		out[w] = append(out[w], o.ms)
	}
	return out
}

// latency is the median over windows of the windows' q-quantile latency.
func (p phase) latency(q float64) float64 {
	var qs []float64
	for _, xs := range byWindow(p.ops, p.window) {
		if len(xs) >= 10 { // skips the stub of a window at the end of a phase
			qs = append(qs, quantile(xs, q))
		}
	}
	if len(qs) == 0 { // a phase shorter than a window
		all := make([]float64, 0, len(p.ops))
		for _, o := range p.ops {
			all = append(all, o.ms)
		}
		return quantile(all, q)
	}
	return median(qs)
}

// perWindow returns f(ops completed, CPU ms, seconds) of every whole window.
func (p phase) perWindow(f func(ops, cpuMs, seconds float64) float64) []float64 {
	var out []float64
	for i := 1; i < len(p.samples); i++ {
		a, b := p.samples[i-1], p.samples[i]
		if b.done > a.done && b.at-a.at >= p.window/2 {
			out = append(out, f(float64(b.done-a.done), b.cpuMs-a.cpuMs, b.at-a.at))
		}
	}
	if len(out) == 0 && len(p.ops) > 0 { // a phase shorter than a window: take it whole
		a, b := p.samples[0], p.samples[len(p.samples)-1]
		out = append(out, f(float64(b.done-a.done), b.cpuMs-a.cpuMs, b.at-a.at))
	}
	return out
}

// rate is the median over windows of ops completed per second.
func (p phase) rate() float64 {
	return median(p.perWindow(func(ops, _, s float64) float64 { return ops / s }))
}

// cpuPerOp is the median over windows of process CPU ms per completed op.
func (p phase) cpuPerOp() float64 {
	return median(p.perWindow(func(ops, cpu, _ float64) float64 { return cpu / ops }))
}

// sampler reads the phase's progress at every window boundary until stop is
// closed, then once more.
func sampler(start time.Time, window float64, done *atomic.Int64, stop <-chan struct{}) []sample {
	read := func() sample {
		return sample{at: time.Since(start).Seconds(), done: done.Load(), cpuMs: cpuTime()}
	}
	out := []sample{read()}
	tick := time.NewTicker(time.Duration(window * float64(time.Second)))
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			out = append(out, read())
		case <-stop:
			return append(out, read())
		}
	}
}

// drive runs body (the loop proper) with a sampler beside it.
func drive(start time.Time, window float64, done *atomic.Int64, body func()) []sample {
	stop := make(chan struct{})
	got := make(chan []sample)
	go func() { got <- sampler(start, window, done, stop) }()
	body()
	close(stop)
	return <-got
}

// openLoop issues one op every 1/rate seconds for dur, whether or not earlier
// ops have finished, handing them round-robin to workers that each run one op
// at a time. Latency is measured from the moment an op was due, so the wait a
// stall imposes on later ops is counted.
func openLoop(rate float64, dur time.Duration, window float64, workers int, op func(worker, i int) bool) phase {
	n := int(rate * dur.Seconds())
	type job struct {
		i   int
		due time.Time
	}
	// Each queue holds every job its worker can get, so the generator never
	// blocks on a slow worker.
	queues := make([]chan job, workers)
	for w := range queues {
		queues[w] = make(chan job, n/workers+1)
	}
	results := make([][]opResult, workers)
	p := phase{window: window, lateMs: make([]float64, 0, n)}
	var done atomic.Int64
	start := time.Now()
	p.samples = drive(start, window, &done, func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range queues[w] {
					ok := op(w, j.i)
					results[w] = append(results[w], opResult{
						at: j.due.Sub(start).Seconds(),
						ms: float64(time.Since(j.due).Nanoseconds()) / 1e6,
						ok: ok,
					})
					done.Add(1)
				}
			}()
		}
		interval := time.Duration(float64(time.Second) / rate)
		for i := 0; i < n; i++ {
			due := start.Add(time.Duration(i) * interval)
			sleepUntil(due)
			p.lateMs = append(p.lateMs, float64(time.Since(due).Nanoseconds())/1e6)
			queues[i%workers] <- job{i: i, due: due}
		}
		for _, q := range queues {
			close(q)
		}
		wg.Wait()
	})
	for _, r := range results {
		p.ops = append(p.ops, r...)
	}
	return p
}

// sleepUntil blocks until t. It sleeps in the kernel rather than on a Go timer:
// on an idle host Go timers fire from the network poller, whose timeout is
// rounded up to whole milliseconds, which made every op about a millisecond
// late at 200 ops/s.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // interrupted: loop and sleep the rest
	}
}

// closedLoop runs clients goroutines for dur; each issues its next op only
// after its previous one completed.
func closedLoop(dur time.Duration, window float64, clients int, op func(client, i int) bool) phase {
	results := make([][]opResult, clients)
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	p := phase{window: window}
	p.samples = drive(start, window, &done, func() {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					t0 := time.Now()
					if !t0.Before(deadline) {
						return
					}
					ok := op(c, i)
					results[c] = append(results[c], opResult{
						at: t0.Sub(start).Seconds(),
						ms: float64(time.Since(t0).Nanoseconds()) / 1e6,
						ok: ok,
					})
					done.Add(1)
				}
			}()
		}
		wg.Wait()
	})
	for _, r := range results {
		p.ops = append(p.ops, r...)
	}
	return p
}

// windowP99 is the median over txP99WindowS-second windows of each window's
// p99 latency, and the p50 of the first and last window (to tell a growing
// backlog from a steady state). A single p99 over a short phase on a shared
// host is set by one scheduling hiccup; the median of windows is not.
func windowP99(ops []opResult, window float64) (p99, firstP50, lastP50 float64) {
	wins := byWindow(ops, window)
	last := 0
	var p99s []float64
	for w, xs := range wins {
		last = max(last, w)
		if len(xs) >= 100 { // a p99 needs a sample beyond it
			p99s = append(p99s, quantile(xs, 0.99))
		}
	}
	return median(p99s), median(wins[0]), median(wins[last])
}

// cpuTime is the process's user+system CPU time in ms.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set in MB (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// settledRSSMB is the process's resident set in MB once the garbage of the
// run has been collected and the freed pages returned to the system: the
// memory the workload's state holds. The peak follows the phase the collector
// happened to be in (it spread 13-27% over ten identical ingest-durable runs,
// this 4-8%), so the peak is only a load.* diagnostic.
func settledRSSMB() float64 {
	debug.FreeOSMemory()
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(data), &size, &resident); err != nil {
		return 0
	}
	return float64(resident) * float64(os.Getpagesize()) / (1 << 20)
}
