package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/dlrm"
	"secndp/internal/serve"
)

// dlrmShape sizes the dlrm-serve workload: the shipped secndp-dlrm
// configuration (pad cache over whole tables, default serve.Config, a
// 2-shard loopback cluster) under an open-loop multi-tenant request
// stream.
type dlrmShape struct {
	tables, rows, cols, bag, shards int
	// rate is the fixed offered load (requests/s) of the measured window.
	rate float64
	// ladder is the fixed set of offered rates (requests/s) the capacity
	// search probes, ascending; each probe runs for step. A probe passes
	// when every request succeeds, p99 stays within p99Limit and the
	// backlog left when its schedule ends fits in p99Limit at that rate.
	ladder   []float64
	step     time.Duration
	p99Limit time.Duration
	// stairs is the number of staircase probes after the binary search.
	stairs    int
	setups    int
	refreshes int
	warm      time.Duration
}

func dlrmFull() dlrmShape {
	return dlrmShape{
		tables: 4, rows: 16384, cols: 16, bag: 80, shards: 2,
		rate:      400,
		ladder:    rungs(400, 1400, 25),
		step:      1500 * time.Millisecond,
		p99Limit:  100 * time.Millisecond,
		stairs:    8,
		setups:    9,
		refreshes: 25,
		warm:      time.Second,
	}
}

func dlrmQuick() dlrmShape {
	return dlrmShape{
		tables: 2, rows: 2048, cols: 16, bag: 20, shards: 2,
		rate: 200, ladder: rungs(100, 300, 100), step: 200 * time.Millisecond,
		p99Limit: 200 * time.Millisecond, stairs: 2, setups: 2, refreshes: 2, warm: 100 * time.Millisecond,
	}
}

// rungs lists lo, lo+step, ... up to hi.
func rungs(lo, hi, step float64) []float64 {
	var out []float64
	for r := lo; r <= hi; r += step {
		out = append(out, r)
	}
	return out
}

// dlrmEnv is one built serving stack.
type dlrmEnv struct {
	lc   *loopbackCluster
	eng  *secndp.Engine
	svc  *serve.Service
	tabs []*secndp.Table
}

func (e *dlrmEnv) close() {
	if e.svc != nil {
		e.svc.Close()
	}
	for _, t := range e.tabs {
		t.Close()
	}
	if e.lc != nil {
		e.lc.close()
	}
}

// setupDLRM starts the shard servers, provisions every table and builds
// the service. reg, when non-nil, turns on the program's telemetry on
// every layer. It returns each CreateTable's duration.
func setupDLRM(ctx context.Context, sh dlrmShape, rows [][][]uint64, reg *secndp.Telemetry) (*dlrmEnv, []time.Duration, error) {
	env := &dlrmEnv{}
	lc, err := startCluster(sh.shards, reg)
	if err != nil {
		return nil, nil, err
	}
	env.lc = lc
	opts := []secndp.Option{secndp.WithPadCache(sh.rows)}
	if reg != nil {
		opts = append(opts, secndp.WithTelemetry(reg))
	}
	if env.eng, err = secndp.New(benchKey, opts...); err != nil {
		env.close()
		return nil, nil, err
	}
	env.svc = serve.New(serve.Config{Registry: reg})
	var creates []time.Duration
	for t := 0; t < sh.tables; t++ {
		spec := regionSpec(fmt.Sprintf("emb%d", t), t, sh.rows, sh.cols)
		start := time.Now()
		tab, err := env.eng.CreateTable(ctx, lc.backend(), spec, rows[t])
		if err != nil {
			env.close()
			return nil, nil, fmt.Errorf("create %s: %w", spec.Name, err)
		}
		creates = append(creates, time.Since(start))
		env.tabs = append(env.tabs, tab)
		if err := env.svc.AddTable(spec.Name, tab); err != nil {
			env.close()
			return nil, nil, err
		}
	}
	return env, creates, nil
}

// openResult is one open-loop phase's outcome.
type openResult struct {
	phase
	late []time.Duration
	// backlog is the number of requests still in flight when the
	// schedule ended.
	backlog int64
}

// runOpen offers rate requests/s for d through the service, each request
// one bag per table from tr, and waits for every request to finish.
// Latency runs from each request's due time. A seeded sample of results
// (one in eight) is checked against the plaintext oracle.
func runOpen(ctx context.Context, env *dlrmEnv, conts []contents, tr *dlrm.Traffic, sample uint64, rate float64, d time.Duration, rec *recorder) *openResult {
	res := &openResult{}
	names := make([]string, len(conts))
	for t := range names {
		names[t] = fmt.Sprintf("emb%d", t)
	}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	res.measure(time.Second, func() {
		start := time.Now().Add(time.Millisecond)
		res.late = openLoop(ctx, realClock{}, start, start.Add(d), rate, func(k int, due time.Time) {
			lbs := tr.Next()
			bags := make([]serve.Bag, len(lbs))
			rows := 0
			for i, lb := range lbs {
				bags[i] = serve.Bag{Table: names[lb.Table], Idx: lb.Idx, Weights: lb.Weights}
				rows += len(lb.Idx)
			}
			checked := splitmix(sample^uint64(k))%8 == 0
			inflight.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer inflight.Add(-1)
				call := time.Now()
				out, err := env.svc.LookupBags(ctx, bags)
				done := time.Now()
				if err != nil {
					res.fail()
					return
				}
				if rec != nil {
					id := rec.add(0, int64(k), "bench.request", due, done)
					rec.add(id, int64(k), "serve.lookup_bags", call, done)
				}
				verified := true
				for i, br := range out {
					verified = verified && br.Verified
					if checked {
						if err := conts[lbs[i].Table].check(bags[i].Idx, bags[i].Weights, br.Values); err != nil {
							res.mism.Add(1)
							res.fail()
							return
						}
					}
				}
				if verified {
					res.verified.Add(1)
				}
				res.ok(done.Sub(due), rows)
			}()
		})
		res.backlog = inflight.Load()
		wg.Wait()
	})
	return res
}

// capacity estimates the highest ladder rate that meets the p99 limit
// without failures or a growing backlog. Near that rate a probe passes or
// fails by chance (one collector stall can push a probe's tail over the
// limit), so a single pass/fail search lands anywhere in that band. A
// binary search over the ladder (latency grows with offered load) finds
// the band; an up-down staircase then probes sh.stairs more times, one
// rung up after a pass and one down after a failure, and the median of
// the rungs it visited is returned: the rate at which a probe meets the
// limit half the time.
func capacity(ctx context.Context, env *dlrmEnv, conts []contents, tr *dlrm.Traffic, seed int64, sh dlrmShape) (float64, []map[string]any) {
	var steps []map[string]any
	pass := func(i int) bool {
		rate := sh.ladder[i]
		r := runOpen(ctx, env, conts, tr, uint64(seed), rate, sh.step, nil)
		p99 := percentile(r.latenciesMs(), 0.99)
		ok := r.failed.Load() == 0 && p99 <= ms(sh.p99Limit) &&
			float64(r.backlog) <= rate*sh.p99Limit.Seconds()
		steps = append(steps, map[string]any{"rate": rate, "p99_ms": p99, "backlog": r.backlog, "failed": r.failed.Load(), "pass": ok})
		return ok
	}
	lo, hi := -1, len(sh.ladder) // invariant: rung lo passed (or is -1), rung hi failed (or is past the end)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if pass(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	i := max(lo, 0)
	visited := make([]float64, 0, sh.stairs)
	for k := 0; k < sh.stairs; k++ {
		visited = append(visited, sh.ladder[i])
		if pass(i) {
			i = min(i+1, len(sh.ladder)-1)
		} else {
			i = max(i-1, 0)
		}
	}
	return median(visited), steps
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func materializeAll(cs []contents) [][][]uint64 {
	out := make([][][]uint64, len(cs))
	for i, c := range cs {
		out[i] = c.materialize()
	}
	return out
}

func newTraffic(sh dlrmShape, seed int64) (*dlrm.Traffic, error) {
	return dlrm.NewTraffic(dlrm.TrafficSpec{
		Tables: sh.tables, RowsPerTable: sh.rows, BagSize: sh.bag,
		ZipfS: 1.07, MaxWeight: maxWeight,
	}, seed)
}

func runDLRM(ctx context.Context, cfg runConfig) (*outcome, error) {
	sh := dlrmFull()
	if cfg.quick {
		sh = dlrmQuick()
	}
	o := newOutcome()
	o.info["tables"] = fmt.Sprintf("%d x %dx%d x 32-bit, 2-shard loopback cluster", sh.tables, sh.rows, sh.cols)
	o.info["offered_rps"] = sh.rate
	o.info["clients"] = "open loop: 1 dispatcher, one goroutine per request"
	o.info["bag"] = fmt.Sprintf("%d bags x %d weighted rows, Zipf s=1.07", sh.tables, sh.bag)

	conts := make([]contents, sh.tables)
	for t := range conts {
		conts[t] = contents{seed: cfg.seed, table: t, rows: sh.rows, cols: sh.cols}
	}
	rows := materializeAll(conts)

	// Untraced: set up several times, keep the last stack.
	var env *dlrmEnv
	var setupS, createS []float64
	for i := 0; i < sh.setups; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		e, creates, err := setupDLRM(ctx, sh, rows, nil)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for _, c := range creates {
			createS = append(createS, c.Seconds())
		}
		env = e
	}
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	rng := newRand(cfg.seed, 1)
	for t, tab := range env.tabs {
		if err := spotCheck(ctx, tab, conts[t], rng); err != nil {
			return nil, err
		}
	}
	o.e2e["setup_s"] = median(setupS)
	o.layer["secndp.create_table_s"] = median(createS)
	o.samples["setup_s"] = len(setupS)

	tr, err := newTraffic(sh, cfg.seed)
	if err != nil {
		return nil, err
	}
	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	runOpen(ctx, env, conts, tr, uint64(cfg.seed), sh.rate, sh.warm, nil)
	st0 := env.svc.Stats()
	r := runOpen(ctx, env, conts, tr, uint64(cfg.seed), sh.rate, measure, nil)
	st := statsDelta(st0, env.svc.Stats())
	r.fill(o)
	o.layer["bench.late_ms"] = percentile(durationsMs(r.late), 0.99)
	o.layer["serve.cache_hit_rate"] = st.CacheHitRate()
	o.layer["serve.coalescing_factor"] = st.CoalescingFactor()
	o.layer["serve.rows_per_batch"] = ratio(float64(st.RowsFetched), float64(st.Batches))
	o.layer["serve.window_flush_share"] = ratio(float64(st.WindowFlushes), float64(st.WindowFlushes+st.SizeFlushes))
	hits, misses := uint64(0), uint64(0)
	for _, tab := range env.tabs {
		h, m := tab.CacheStats()
		hits, misses = hits+h, misses+m
	}
	o.layer["core.padcache_hit_rate"] = ratio(float64(hits), float64(hits+misses))

	if !cfg.trace {
		capRPS, steps := capacity(ctx, env, conts, tr, cfg.seed, sh)
		o.e2e["capacity_rps"] = capRPS
		o.info["capacity_ladder"] = steps
		o.e2e["heap_mb"] = heapMiB()
		// The serving layer cannot swap a table, so a refresh here is a
		// replacement CreateTable of table 0's shape with new contents
		// in a spare region of the same shards, checked and closed.
		var refresh []float64
		for g := 1; g <= sh.refreshes; g++ {
			c := conts[0]
			c.gen = g
			plain := c.materialize()
			spec := regionSpec(fmt.Sprintf("emb0-gen%d", g), sh.tables+g%2, sh.rows, sh.cols)
			start := time.Now()
			tab, err := env.eng.CreateTable(ctx, env.lc.backend(), spec, plain)
			if err != nil {
				return nil, fmt.Errorf("refresh: %w", err)
			}
			refresh = append(refresh, time.Since(start).Seconds())
			err = spotCheck(ctx, tab, c, rng)
			tab.Close()
			if err != nil {
				return nil, err
			}
		}
		o.e2e["refresh_s"] = median(refresh)
		o.samples["refresh_s"] = len(refresh)
		return o, nil
	}

	if err := runLadder(ctx, nil, nil, conts[0], cfg, o); err != nil {
		return nil, err
	}

	// Traced: the same stream through a stack with every layer's
	// telemetry on, plus the benchmark's own spans.
	env.close()
	env = nil
	reg := secndp.NewTelemetry()
	if env, _, err = setupDLRM(ctx, sh, rows, reg); err != nil {
		return nil, err
	}
	rec := newRecorder()
	o.rec = rec
	runOpen(ctx, env, conts, tr, uint64(cfg.seed), sh.rate, sh.warm, nil)
	s0 := takeSnap(reg)
	hctx, stop := context.WithCancel(ctx)
	var wrapped int
	done := make(chan struct{})
	go func() {
		defer close(done)
		wrapped = harvestEngineSpans(hctx, reg, rec, "query_batch", "secndp.query_batch")
	}()
	tr2 := runOpen(ctx, env, conts, tr, uint64(cfg.seed), sh.rate, measure, rec)
	stop()
	<-done
	s1 := takeSnap(reg)
	o.addPhase(&tr2.tally)
	o.mismatches += tr2.mism.Load()
	o.layerFromSnap(s1.minus(s0))
	o.snaps["traced"] = s1.raw
	o.info["harvest_wrapped_polls"] = wrapped

	tracedP50 := percentile(tr2.latenciesMs(), 0.5)
	o.layer["bench.trace_overhead_pct"] = 100 * (tracedP50 - o.e2e["p50_ms"]) / o.e2e["p50_ms"]
	o.layer["secndp.batch_ms"] = median(rec.byName("secndp.query_batch"))
	o.layer["serve.wait_ms"] = lookupWaitMs(rec)
	return o, nil
}

// statsDelta is b minus a for the counters the metrics read.
func statsDelta(a, b serve.Stats) serve.Stats {
	return serve.Stats{
		CacheHits: b.CacheHits - a.CacheHits, CacheMisses: b.CacheMisses - a.CacheMisses,
		CoalesceJoins: b.CoalesceJoins - a.CoalesceJoins, RowsFetched: b.RowsFetched - a.RowsFetched,
		Batches: b.Batches - a.Batches, WindowFlushes: b.WindowFlushes - a.WindowFlushes,
		SizeFlushes: b.SizeFlushes - a.SizeFlushes,
	}
}
