package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/workload"
)

// refreshShape sizes the batch-refresh workload: verified QueryBatch calls
// on a 2-shard loopback cluster while a second goroutine periodically
// re-creates the table with new contents. The table stays below the
// remote transport's 1 MiB blob cap per shard (see BENCHMARK.json).
type refreshShape struct {
	rows, cols, pf, batch, shards int
	// every is the refresh period.
	every  time.Duration
	setups int
	// ladder is the number of batches replayed through the local and
	// cluster backends.
	ladder int
	warm   time.Duration
}

func refreshFull() refreshShape {
	return refreshShape{rows: 16384, cols: 16, pf: 80, batch: 32, shards: 2, every: 500 * time.Millisecond, setups: 5, ladder: 300, warm: time.Second}
}

func refreshQuick() refreshShape {
	return refreshShape{rows: 2048, cols: 16, pf: 80, batch: 8, shards: 2, every: 100 * time.Millisecond, setups: 2, ladder: 20, warm: 100 * time.Millisecond}
}

// generation is one provisioned version of the table. Queries hold mu
// for reading while they use tab; the refresher takes it for writing
// before closing tab, so no query ever runs on a closed table.
type generation struct {
	tab    *secndp.Table
	c      contents
	mu     sync.RWMutex
	closed bool
}

type refreshEnv struct {
	lc  *loopbackCluster
	eng *secndp.Engine
	cur atomic.Pointer[generation]
}

func (e *refreshEnv) close() {
	if g := e.cur.Load(); g != nil {
		g.tab.Close()
	}
	e.lc.close()
}

// acquire returns the live generation, read-locked.
func (e *refreshEnv) acquire() *generation {
	for {
		g := e.cur.Load()
		g.mu.RLock()
		if !g.closed {
			return g
		}
		g.mu.RUnlock()
	}
}

// create provisions generation c into the region alternate to the
// previous generation's and returns it with the CreateTable duration.
func (e *refreshEnv) create(ctx context.Context, sh refreshShape, c contents, rows [][]uint64) (*generation, time.Duration, error) {
	spec := regionSpec(fmt.Sprintf("batch-%d", c.gen%2), c.gen%2, sh.rows, sh.cols)
	start := time.Now()
	tab, err := e.eng.CreateTable(ctx, e.lc.backend(), spec, rows)
	if err != nil {
		return nil, 0, fmt.Errorf("create generation %d: %w", c.gen, err)
	}
	return &generation{tab: tab, c: c}, time.Since(start), nil
}

// swap publishes g and retires the generation it replaces once its
// in-flight queries have drained.
func (e *refreshEnv) swap(g *generation) {
	old := e.cur.Swap(g)
	if old == nil {
		return
	}
	old.mu.Lock()
	old.closed = true
	old.tab.Close()
	old.mu.Unlock()
}

func setupRefresh(ctx context.Context, sh refreshShape, c contents, rows [][]uint64, reg *secndp.Telemetry) (*refreshEnv, error) {
	lc, err := startCluster(sh.shards, reg)
	if err != nil {
		return nil, err
	}
	var opts []secndp.Option
	if reg != nil {
		opts = append(opts, secndp.WithTelemetry(reg))
	}
	eng, err := secndp.New(benchKey, opts...)
	if err != nil {
		lc.close()
		return nil, err
	}
	env := &refreshEnv{lc: lc, eng: eng}
	g, _, err := env.create(ctx, sh, c, rows)
	if err != nil {
		lc.close()
		return nil, err
	}
	env.cur.Store(g)
	return env, nil
}

// batchSource draws batches of PF-row uniform requests from the repo's
// SLS trace generator, one generator call per batch.
type batchSource struct {
	sh   refreshShape
	seed int64
	k    int64
	rng  *rand.Rand
}

func newBatchSource(sh refreshShape, seed int64) *batchSource {
	return &batchSource{sh: sh, seed: seed, rng: newRand(seed, 2)}
}

func (b *batchSource) next() []secndp.Request {
	b.k++
	qs := workload.SLSTrace(workload.SLSConfig{
		NumTables: 1, RowsPerTable: b.sh.rows, RowBytes: b.sh.cols * 4,
		Batch: b.sh.batch, PF: b.sh.pf, Seed: b.seed*7919 + b.k,
	}).Queries
	reqs := make([]secndp.Request, len(qs))
	for i, q := range qs {
		reqs[i] = secndp.Request{Idx: q.Rows, Weights: weightsFor(b.rng, len(q.Rows))}
	}
	return reqs
}

type refreshResult struct {
	phase
	refresh []time.Duration
}

// runRefresh runs one closed-loop QueryBatch client beside the refresher
// for d. Two requests of every batch (seeded) are checked against the
// contents of the generation that answered it.
func runRefresh(ctx context.Context, env *refreshEnv, sh refreshShape, src *batchSource, d time.Duration, rec *recorder) (*refreshResult, error) {
	res := &refreshResult{}
	stop := make(chan struct{})
	var refreshErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(sh.every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			c := env.cur.Load().c
			c.gen++
			rows := c.materialize()
			t0 := time.Now()
			g, dur, err := env.create(ctx, sh, c, rows)
			if err != nil {
				refreshErr = err
				return
			}
			env.swap(g)
			rec.add(rec.add(0, int64(-c.gen), "bench.refresh", t0, time.Now()), int64(-c.gen), "secndp.create_table", t0, t0.Add(dur))
			res.refresh = append(res.refresh, dur)
		}
	}()
	var reqID atomic.Int64
	res.measure(time.Second, func() {
		closedLoop(ctx, 1, d, func(_, _ int) {
			var issue time.Time
			if rec != nil {
				issue = time.Now()
			}
			reqs := src.next()
			checkA, checkB := int(src.k*7)%len(reqs), int(src.k*13+5)%len(reqs)
			g := env.acquire()
			start := time.Now()
			out, err := g.tab.QueryBatch(ctx, reqs)
			end := time.Now()
			c := g.c
			g.mu.RUnlock()
			if err == nil {
				for i, r := range out {
					if r.Values == nil {
						err = fmt.Errorf("request %d: no result", i)
						break
					}
				}
			}
			if err != nil {
				res.fail()
				return
			}
			if rec != nil {
				id := reqID.Add(1)
				rec.add(0, id, "bench.generate", issue, start)
				rec.add(0, id, "secndp.query_batch", start, end)
			}
			for _, i := range []int{checkA, checkB} {
				if err := c.check(reqs[i].Idx, reqs[i].Weights, out[i].Values); err != nil {
					res.mism.Add(1)
					res.fail()
					return
				}
			}
			verified, rows := true, 0
			for i, r := range out {
				verified = verified && r.Verified
				rows += len(reqs[i].Idx)
			}
			if verified {
				res.verified.Add(1)
			}
			res.ok(end.Sub(start), rows)
		})
	})
	close(stop)
	wg.Wait()
	return res, refreshErr
}

func runBatchRefresh(ctx context.Context, cfg runConfig) (*outcome, error) {
	sh := refreshFull()
	if cfg.quick {
		sh = refreshQuick()
	}
	o := newOutcome()
	o.info["tables"] = fmt.Sprintf("1 x %dx%d x 32-bit, %d-shard loopback cluster", sh.rows, sh.cols, sh.shards)
	o.info["clients"] = fmt.Sprintf("1 closed-loop QueryBatch client (%d x PF=%d uniform) + 1 refresher every %v", sh.batch, sh.pf, sh.every)
	c := contents{seed: cfg.seed, rows: sh.rows, cols: sh.cols}
	rows := c.materialize()

	var env *refreshEnv
	var setupS []float64
	for i := 0; i < sh.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		e, err := setupRefresh(ctx, sh, c, rows, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		env = e
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	o.e2e["setup_s"] = median(setupS)
	o.samples["setup_s"] = len(setupS)
	if err := spotCheck(ctx, env.cur.Load().tab, c, newRand(cfg.seed, 1)); err != nil {
		return nil, err
	}

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	src := newBatchSource(sh, cfg.seed)
	if _, err := runRefresh(ctx, env, sh, src, sh.warm, nil); err != nil {
		return nil, err
	}
	r, err := runRefresh(ctx, env, sh, src, measure, nil)
	if err != nil {
		return nil, err
	}
	r.fill(o)
	refreshS := make([]float64, len(r.refresh))
	for i, d := range r.refresh {
		refreshS[i] = d.Seconds()
	}
	o.e2e["refresh_s"] = median(refreshS)
	o.samples["refresh_s"] = len(refreshS)
	o.layer["secndp.create_table_s"] = median(refreshS)

	if !cfg.trace {
		o.e2e["heap_mb"] = heapMiB()
		return o, nil
	}

	if err := runLadder(ctx, nil, nil, env.cur.Load().c, cfg, o); err != nil {
		return nil, err
	}

	env.close()
	env = nil
	reg := secndp.NewTelemetry()
	if env, err = setupRefresh(ctx, sh, c, rows, reg); err != nil {
		return nil, err
	}
	rec := newRecorder()
	o.rec = rec
	if _, err := runRefresh(ctx, env, sh, src, sh.warm, nil); err != nil {
		return nil, err
	}
	s0 := takeSnap(reg)
	tr, err := runRefresh(ctx, env, sh, src, measure, rec)
	if err != nil {
		return nil, err
	}
	s1 := takeSnap(reg)
	o.addPhase(&tr.tally)
	o.mismatches += tr.mism.Load()
	o.layerFromSnap(s1.minus(s0))
	o.snaps["traced"] = s1.raw
	tracedP50 := percentile(tr.latenciesMs(), 0.5)
	o.layer["bench.trace_overhead_pct"] = 100 * (tracedP50 - o.e2e["p50_ms"]) / o.e2e["p50_ms"]
	o.layer["bench.late_ms"] = percentile(rec.byName("bench.generate"), 0.99)
	o.layer["secndp.batch_ms"] = median(rec.byName("secndp.query_batch"))
	return o, nil
}
