package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"secndp"
	"secndp/internal/workload"
)

// slsShape sizes the sls-local workload: direct verified single queries
// against one RMC1-small table (2^20 rows x 32 x 32-bit, 128 MiB of
// ciphertext, larger than the last-level cache) on LocalBackend with
// default engine options.
type slsShape struct {
	rows, cols, pf, clients int
	setups, refreshes       int
	// ladder is the number of queries replayed through core and facade.
	ladder int
	warm   time.Duration
}

func slsFull() slsShape {
	return slsShape{rows: 1 << 20, cols: 32, pf: 80, clients: 2, setups: 3, refreshes: 7, ladder: 3000, warm: time.Second}
}

func slsQuick() slsShape {
	return slsShape{rows: 1 << 12, cols: 32, pf: 80, clients: 2, setups: 2, refreshes: 2, ladder: 100, warm: 100 * time.Millisecond}
}

// slsQueries is one client's query source: PF-row uniform queries from
// the repo's SLS trace generator, drawn in chunks so a run of any length
// needs bounded memory and never cycles through a cache-sized pool.
type slsQueries struct {
	sh    slsShape
	seed  int64
	chunk int
	buf   []workload.Query
	rng   *rand.Rand
}

func newSLSQueries(sh slsShape, seed int64) *slsQueries {
	return &slsQueries{sh: sh, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

func (q *slsQueries) next() secndp.Request {
	if len(q.buf) == 0 {
		q.chunk++
		q.buf = workload.SLSTrace(workload.SLSConfig{
			NumTables: 1, RowsPerTable: q.sh.rows, RowBytes: q.sh.cols * 4,
			Batch: 256, PF: q.sh.pf, Seed: q.seed*7919 + int64(q.chunk),
		}).Queries
	}
	idx := q.buf[0].Rows
	q.buf = q.buf[1:]
	return secndp.Request{Idx: idx, Weights: weightsFor(q.rng, len(idx))}
}

type slsEnv struct {
	mem *secndp.Memory
	eng *secndp.Engine
	tab *secndp.Table
}

func setupSLS(ctx context.Context, sh slsShape, rows [][]uint64, reg *secndp.Telemetry) (*slsEnv, time.Duration, error) {
	var opts []secndp.Option
	if reg != nil {
		opts = append(opts, secndp.WithTelemetry(reg))
	}
	eng, err := secndp.New(benchKey, opts...)
	if err != nil {
		return nil, 0, err
	}
	env := &slsEnv{mem: secndp.NewMemory(), eng: eng}
	start := time.Now()
	env.tab, err = eng.CreateTable(ctx, secndp.LocalBackend(env.mem), secndp.TableSpec{Name: "rmc1", Rows: sh.rows, Cols: sh.cols}, rows)
	if err != nil {
		return nil, 0, fmt.Errorf("create rmc1: %w", err)
	}
	return env, time.Since(start), nil
}

// runSLS drives sh.clients closed-loop clients calling Table.Query for d.
// One query in 32 (seeded) is checked against the plaintext oracle.
func runSLS(ctx context.Context, env *slsEnv, c contents, sh slsShape, seed int64, d time.Duration, rec *recorder) *phase {
	res := &phase{}
	srcs := make([]*slsQueries, sh.clients)
	for i := range srcs {
		srcs[i] = newSLSQueries(sh, seed*31+int64(i))
	}
	var reqID atomic.Int64
	res.measure(time.Second, func() {
		closedLoop(ctx, sh.clients, d, func(client, k int) {
			var issue time.Time
			if rec != nil {
				issue = time.Now()
			}
			req := srcs[client].next()
			checked := srcs[client].rng.Intn(32) == 0
			start := time.Now()
			r, err := env.tab.Query(ctx, req)
			end := time.Now()
			if err != nil {
				res.fail()
				return
			}
			if rec != nil {
				id := reqID.Add(1)
				rec.add(0, id, "bench.generate", issue, start)
				rec.add(0, id, "secndp.query", start, end)
			}
			if checked {
				if err := c.check(req.Idx, req.Weights, r.Values); err != nil {
					res.mism.Add(1)
					res.fail()
					return
				}
			}
			if r.Verified {
				res.verified.Add(1)
			}
			res.ok(end.Sub(start), len(req.Idx))
		})
	})
	return res
}

func runSLSLocal(ctx context.Context, cfg runConfig) (*outcome, error) {
	sh := slsFull()
	if cfg.quick {
		sh = slsQuick()
	}
	o := newOutcome()
	o.info["tables"] = fmt.Sprintf("1 x %dx%d x 32-bit (%d MiB ciphertext), LocalBackend, default engine options", sh.rows, sh.cols, sh.rows*sh.cols*4>>20)
	o.info["clients"] = fmt.Sprintf("%d closed-loop clients, Table.Query, PF=%d uniform", sh.clients, sh.pf)
	c := contents{seed: cfg.seed, rows: sh.rows, cols: sh.cols}

	var env *slsEnv
	var setupS, createS []float64
	{
		rows := c.materialize()
		for i := 0; i < sh.setups; i++ {
			env = nil
			runtime.GC() // drop the previous table before building the next
			start := time.Now()
			e, create, err := setupSLS(ctx, sh, rows, nil)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(start).Seconds())
			createS = append(createS, create.Seconds())
			env = e
		}
	}
	o.e2e["setup_s"] = median(setupS)
	o.layer["secndp.create_table_s"] = median(createS)
	o.samples["setup_s"] = len(setupS)
	if err := spotCheck(ctx, env.tab, c, newRand(cfg.seed, 1)); err != nil {
		return nil, err
	}

	measure := cfg.seconds
	if cfg.trace {
		measure /= 2
	}
	runSLS(ctx, env, c, sh, cfg.seed+1000, sh.warm, nil)
	r := runSLS(ctx, env, c, sh, cfg.seed, measure, nil)
	r.fill(o)

	if !cfg.trace {
		o.e2e["heap_mb"] = heapMiB()
		runtime.KeepAlive(env) // the live table counts toward heap_mb
		// Refresh: replace the table with new-seed contents in a fresh
		// memory region, check it, and drop the old one.
		var refresh []float64
		for g := 1; g <= sh.refreshes; g++ {
			env = nil
			cg := c
			cg.gen = g
			rows := cg.materialize()
			// Collect the old table and the garbage of building the new
			// plaintext now, so the timed CreateTable pays only for itself.
			runtime.GC()
			e, create, err := setupSLS(ctx, sh, rows, nil)
			if err != nil {
				return nil, fmt.Errorf("refresh: %w", err)
			}
			refresh = append(refresh, create.Seconds())
			if err := spotCheck(ctx, e.tab, cg, newRand(cfg.seed, int64(g))); err != nil {
				return nil, err
			}
			env = e
		}
		o.e2e["refresh_s"] = median(refresh)
		o.samples["refresh_s"] = len(refresh)
		return o, nil
	}

	if err := runLadder(ctx, env.tab, env.mem, c, cfg, o); err != nil {
		return nil, err
	}

	// Traced run: a telemetry-enabled engine over a fresh table.
	env = nil
	runtime.GC()
	reg := secndp.NewTelemetry()
	tenv, _, err := setupSLS(ctx, sh, c.materialize(), reg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	o.rec = rec
	runSLS(ctx, tenv, c, sh, cfg.seed+1000, sh.warm, nil)
	s0 := takeSnap(reg)
	tr := runSLS(ctx, tenv, c, sh, cfg.seed, measure, rec)
	s1 := takeSnap(reg)
	o.addPhase(&tr.tally)
	o.mismatches += tr.mism.Load()
	o.layerFromSnap(s1.minus(s0))
	o.snaps["traced"] = s1.raw
	tracedP50 := percentile(tr.latenciesMs(), 0.5)
	o.layer["bench.trace_overhead_pct"] = 100 * (tracedP50 - o.e2e["p50_ms"]) / o.e2e["p50_ms"]
	o.layer["bench.late_ms"] = percentile(rec.byName("bench.generate"), 0.99)
	return o, nil
}
