package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// tally collects one phase's outcomes from many goroutines: per-operation
// latencies of successful operations in completion order, plus
// attempted/failed/succeeded counts and the row references folded into
// successful results.
type tally struct {
	mu        sync.Mutex
	lat       []time.Duration
	attempted atomic.Int64
	failed    atomic.Int64
	succeeded atomic.Int64
	rows      atomic.Int64
}

// ok records one successful operation that folded rows row references.
func (t *tally) ok(d time.Duration, rows int) {
	t.mu.Lock()
	t.lat = append(t.lat, d)
	t.mu.Unlock()
	t.attempted.Add(1)
	t.rows.Add(int64(rows))
	t.succeeded.Add(1)
}

// fail records one failed (or shed, or oracle-mismatched) operation.
func (t *tally) fail() {
	t.attempted.Add(1)
	t.failed.Add(1)
}

func (t *tally) latenciesMs() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return durationsMs(t.lat)
}

// phase is one measured stretch of load: its tally, the process cost of
// the whole stretch, and progress samples taken every window so rates can
// be reported as medians over windows. A shared host slows some windows
// more than others; the median over windows moves far less with such a
// stall than a whole-phase mean does.
type phase struct {
	tally
	proc     procDelta
	ticks    []tick
	verified atomic.Int64
	mism     atomic.Int64
}

type tick struct {
	at       time.Time
	cpu      time.Duration
	ok, rows int64
}

func (p *phase) tick() tick {
	return tick{at: time.Now(), cpu: cpuTime(), ok: p.succeeded.Load(), rows: p.rows.Load()}
}

// measure runs load, which returns when the phase's load is done, while
// sampling progress every window.
func (p *phase) measure(window time.Duration, load func()) {
	before := sampleProc()
	stop, done := make(chan struct{}), make(chan struct{})
	p.ticks = append(p.ticks, p.tick())
	go func() {
		defer close(done)
		tk := time.NewTicker(window)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
				p.ticks = append(p.ticks, p.tick())
			}
		}
	}()
	load()
	close(stop)
	<-done
	p.ticks = append(p.ticks, p.tick())
	p.proc = before.to(sampleProc())
}

// windowRates returns the median over full windows of operations/s, rows/s
// and CPU µs per operation. A trailing window shorter than half the
// others is dropped.
func (p *phase) windowRates() (opsPerS, rowsPerS, cpuUsPerOp float64) {
	var ops, rows, cpu []float64
	var full time.Duration
	for i := 1; i < len(p.ticks); i++ {
		full = max(full, p.ticks[i].at.Sub(p.ticks[i-1].at))
	}
	for i := 1; i < len(p.ticks); i++ {
		a, b := p.ticks[i-1], p.ticks[i]
		dt := b.at.Sub(a.at)
		if dt < full/2 || b.ok == a.ok {
			continue
		}
		ops = append(ops, float64(b.ok-a.ok)/dt.Seconds())
		rows = append(rows, float64(b.rows-a.rows)/dt.Seconds())
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/float64(b.ok-a.ok))
	}
	return median(ops), median(rows), median(cpu)
}

// fill sets the end-to-end metrics every workload derives the same way
// from its measured phase: p50 over all operations, p99 as the median of
// per-chunk p99s (see tailMs), window-median rates and CPU per
// operation, and the verified share.
func (p *phase) fill(o *outcome) {
	lat := p.latenciesMs()
	o.e2e["p50_ms"] = percentile(lat, 0.5)
	o.e2e["p99_ms"] = tailMs(lat, 0.99)
	o.samples["p50_ms"], o.samples["p99_ms"] = len(lat), len(lat)
	ops, rows, cpu := p.windowRates()
	o.e2e["capacity_rps"] = ops
	o.e2e["rows_per_s"] = rows
	o.e2e["cpu_us_per_op"] = cpu
	o.e2e["verified_ratio"] = ratio(float64(p.verified.Load()), float64(len(lat)))
	o.layer["runtime.allocs_per_op"] = ratio(float64(p.proc.mallocs), float64(len(lat)))
	o.layer["runtime.gc_pause_ms"] = ms(p.proc.pause)
	o.addPhase(&p.tally)
	o.mismatches += p.mism.Load()
}

// tailMs is a high percentile robust to a stall of the shared host: the
// latencies, in completion order, are cut into at most ten chunks of at
// least minTailChunk (so each chunk's percentile has at least ten samples
// beyond it at p99), and the median of the chunks' percentiles is
// returned. Fewer than two chunks' worth falls back to the plain
// percentile.
func tailMs(lat []float64, p float64) float64 {
	n := len(lat)
	chunk := max(minTailChunk, n/10)
	if n < 2*chunk {
		return percentile(lat, p)
	}
	var ps []float64
	for lo := 0; lo+chunk <= n; lo += chunk {
		ps = append(ps, percentile(lat[lo:lo+chunk], p))
	}
	return median(ps)
}

const minTailChunk = 1000

// procSample is a point-in-time reading of the process's CPU time and Go
// runtime counters; the difference of two samples charges a phase.
type procSample struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	pauseNs uint64
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF on a live process cannot fail
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		wall:    time.Now(),
		cpu:     cpuTime(),
		mallocs: ms.Mallocs,
		pauseNs: ms.PauseTotalNs,
	}
}

// procDelta is what a phase cost the process.
type procDelta struct {
	wall, cpu time.Duration
	mallocs   uint64
	pause     time.Duration
}

func (a procSample) to(b procSample) procDelta {
	return procDelta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		mallocs: b.mallocs - a.mallocs,
		pause:   time.Duration(b.pauseNs - a.pauseNs),
	}
}

// heapMiB forces collections and returns the live Go heap in MiB. The
// second collection frees what sync.Pool caches kept through the first.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// closedLoop runs clients goroutines, each calling op back to back (the
// next call only after the previous returns) until d elapses or ctx ends.
// op receives the client index and that client's call sequence number.
// It returns once every client has stopped.
func closedLoop(ctx context.Context, clients int, d time.Duration, op func(client, k int)) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ctx.Err() == nil; k++ {
				op(c, k)
			}
		}(c)
	}
	wg.Wait()
}

// clock abstracts time for the open-loop dispatcher so tests can drive it
// deterministically.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop is a fixed-rate dispatcher: request k is due at start+k/rate,
// for every due time before end. It sleeps until each due time (or not at
// all when running behind) and calls launch(k, due) on its own goroutine;
// launch must hand the request off (start a goroutine) rather than serve
// it, so a slow request never delays the schedule. Requests are timed by
// the caller from due, not from launch: a stall in the dispatcher or the
// system then shows up in every request it delayed. The returned slice
// holds each launch's lateness (launch time minus due time).
func openLoop(ctx context.Context, clk clock, start, end time.Time, rate float64, launch func(k int, due time.Time)) []time.Duration {
	interval := time.Duration(float64(time.Second) / rate)
	var late []time.Duration
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(end) || ctx.Err() != nil {
			return late
		}
		clk.SleepUntil(due)
		late = append(late, clk.Now().Sub(due))
		launch(k, due)
	}
}
