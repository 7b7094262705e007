package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"secndp"
	"secndp/internal/core"
	"secndp/internal/dlrm"
	"secndp/internal/otp"
	"secndp/internal/serve"
)

// ladderWork sizes the layer ladder a traced run replays.
type ladderWork struct {
	// queries single queries go through core and the facade each;
	// batches batches through the local and the cluster backend each;
	// lookups serve lookups through the serving probe.
	queries, batches, lookups int
	pf, batch                 int
}

var (
	ladderFull  = ladderWork{queries: 3000, batches: 300, lookups: 300, pf: 80, batch: 32}
	ladderQuick = ladderWork{queries: 100, batches: 20, lookups: 20, pf: 80, batch: 8}
)

// runLadder replays identical generated inputs down the stack, so each
// layer's cost shows as the difference between adjacent rungs:
//
//  1. core.Table.QueryVerified on an HonestNDP over single's ciphertext,
//     then Table.Query on single (LocalBackend), alternating which goes
//     first: core.query_verified_us, secndp.query_us,
//     secndp.facade_overhead_us and the facade's per-phase Timing;
//  2. QueryBatch on a LocalBackend table, then on a 2-shard loopback
//     ClusterBackend table of the same contents: secndp.batch_ms,
//     remote.batch_wire_ms, and the cluster's server and shard timings;
//  3. serve lookups over the cluster table: serve.wait_ms.
//
// single is the workload's own local table when it has one (mem is its
// memory); nil builds one of c's shape. Rungs 2 and 3 use a table of c's
// width kept under the remote transport's 1 MiB blob cap. It fills o's
// per-layer metrics; a workload's traced phase later overwrites the ones
// it observes itself.
func runLadder(ctx context.Context, single *secndp.Table, mem *secndp.Memory, c contents, cfg runConfig, o *outcome) error {
	lw, seed := ladderFull, cfg.seed
	if cfg.quick {
		lw = ladderQuick
	}
	if single == nil {
		eng, err := secndp.New(benchKey)
		if err != nil {
			return err
		}
		mem = secndp.NewMemory()
		if single, err = eng.CreateTable(ctx, secndp.LocalBackend(mem), secndp.TableSpec{Name: "ladder-single", Rows: c.rows, Cols: c.cols}, c.materialize()); err != nil {
			return fmt.Errorf("ladder table: %w", err)
		}
		defer single.Close()
	}
	if err := singleRungs(ctx, single, mem, c, lw, seed, o); err != nil {
		return err
	}
	bc := c
	bc.rows = min(c.rows, (1<<20)/(c.cols*4))
	return batchRungs(ctx, bc, lw, seed, o)
}

func singleRungs(ctx context.Context, tab *secndp.Table, mem *secndp.Memory, c contents, lw ladderWork, seed int64, o *outcome) error {
	scheme, err := core.NewScheme(benchKey)
	if err != nil {
		return err
	}
	ct, err := scheme.OpenTable(tab.Geometry(), tab.Version())
	if err != nil {
		return err
	}
	ndp := &core.HonestNDP{Mem: mem}
	src := newSLSQueries(slsShape{rows: c.rows, cols: c.cols, pf: lw.pf}, seed*131+7)
	var coreUs, facadeUs, pad, tag, ndpT, verify []float64
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i := 0; i < lw.queries; i++ {
		req := src.next()
		runCore := func() error {
			start := time.Now()
			v, err := ct.QueryVerified(ndp, req.Idx, req.Weights)
			coreUs = append(coreUs, us(time.Since(start)))
			if err == nil {
				err = c.check(req.Idx, req.Weights, v)
			}
			return err
		}
		runFacade := func() error {
			start := time.Now()
			r, err := tab.Query(ctx, req)
			facadeUs = append(facadeUs, us(time.Since(start)))
			if err != nil {
				return err
			}
			pad, tag = append(pad, us(r.Timing.Pad)), append(tag, us(r.Timing.Tag))
			ndpT, verify = append(ndpT, us(r.Timing.NDP)), append(verify, us(r.Timing.Verify))
			return c.check(req.Idx, req.Weights, r.Values)
		}
		first, second := runCore, runFacade
		if i%2 == 1 {
			first, second = runFacade, runCore
		}
		if err := first(); err != nil {
			return fmt.Errorf("ladder query %d: %w", i, err)
		}
		if err := second(); err != nil {
			return fmt.Errorf("ladder query %d: %w", i, err)
		}
	}
	L := o.layer
	L["core.query_verified_us"] = median(coreUs)
	L["secndp.query_us"] = median(facadeUs)
	L["secndp.facade_overhead_us"] = median(facadeUs) - median(coreUs)
	L["core.pad_us"], L["core.tag_us"] = median(pad), median(tag)
	L["core.ndp_us"], L["core.verify_us"] = median(ndpT), median(verify)
	o.padBytes = float64(lw.pf) * float64(c.cols*4+otp.BlockBytes)
	o.samples["ladder_queries"] = lw.queries
	return nil
}

func batchRungs(ctx context.Context, c contents, lw ladderWork, seed int64, o *outcome) error {
	reg := secndp.NewTelemetry()
	lc, err := startCluster(2, reg)
	if err != nil {
		return err
	}
	defer lc.close()
	eng, err := secndp.New(benchKey, secndp.WithTelemetry(reg))
	if err != nil {
		return err
	}
	// The local rung pays the same telemetry cost on a registry of its
	// own, so reg's batch counters describe the cluster rung alone.
	localEng, err := secndp.New(benchKey, secndp.WithTelemetry(secndp.NewTelemetry()))
	if err != nil {
		return err
	}
	rows := c.materialize()
	local, err := localEng.CreateTable(ctx, secndp.LocalBackend(secndp.NewMemory()), secndp.TableSpec{Name: "ladder-local", Rows: c.rows, Cols: c.cols}, rows)
	if err != nil {
		return fmt.Errorf("ladder local table: %w", err)
	}
	defer local.Close()
	clus, err := eng.CreateTable(ctx, lc.backend(), regionSpec("ladder-cluster", 0, c.rows, c.cols), rows)
	if err != nil {
		return fmt.Errorf("ladder cluster table: %w", err)
	}
	defer clus.Close()

	src := newBatchSource(refreshShape{rows: c.rows, cols: c.cols, pf: lw.pf, batch: lw.batch}, seed*131+9)
	var localMs, clusterMs []float64
	s0 := takeSnap(reg)
	for i := 0; i < lw.batches; i++ {
		reqs := src.next()
		run := func(tab *secndp.Table, into *[]float64) error {
			start := time.Now()
			out, err := tab.QueryBatch(ctx, reqs)
			*into = append(*into, ms(time.Since(start)))
			if err != nil {
				return err
			}
			return c.check(reqs[0].Idx, reqs[0].Weights, out[0].Values)
		}
		a, b := func() error { return run(local, &localMs) }, func() error { return run(clus, &clusterMs) }
		if i%2 == 1 {
			a, b = b, a
		}
		if err := a(); err != nil {
			return fmt.Errorf("ladder batch %d: %w", i, err)
		}
		if err := b(); err != nil {
			return fmt.Errorf("ladder batch %d: %w", i, err)
		}
	}
	o.layerFromSnap(takeSnap(reg).minus(s0))
	L := o.layer
	L["secndp.batch_ms"] = median(localMs)
	L["remote.batch_wire_ms"] = median(clusterMs) - median(localMs)
	o.samples["ladder_batches"] = lw.batches

	wait, err := serveProbe(ctx, reg, clus, c, lw, seed)
	if err != nil {
		return err
	}
	L["serve.wait_ms"] = wait
	return nil
}

// serveProbe runs closed-loop single-bag lookups through a serving layer
// over tab and returns the median lookup self time outside facade batches.
func serveProbe(ctx context.Context, reg *secndp.Telemetry, tab *secndp.Table, c contents, lw ladderWork, seed int64) (float64, error) {
	svc := serve.New(serve.Config{Registry: reg})
	defer svc.Close()
	if err := svc.AddTable("ladder", tab); err != nil {
		return 0, err
	}
	tr, err := dlrm.NewTraffic(dlrm.TrafficSpec{Tables: 1, RowsPerTable: c.rows, BagSize: lw.pf, ZipfS: 1.07, MaxWeight: maxWeight}, seed*131+11)
	if err != nil {
		return 0, err
	}
	rec := newRecorder()
	hctx, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		harvestEngineSpans(hctx, reg, rec, "query_batch", "secndp.query_batch")
	}()
	err = func() error {
		for k := 0; k < lw.lookups; k++ {
			lb := tr.Next()[0]
			start := time.Now()
			out, err := svc.Lookup(ctx, serve.Bag{Table: "ladder", Idx: lb.Idx, Weights: lb.Weights})
			end := time.Now()
			if err == nil {
				err = c.check(lb.Idx, lb.Weights, out.Values)
			}
			if err != nil {
				return fmt.Errorf("ladder lookup %d: %w", k, err)
			}
			rec.add(0, int64(k), "serve.lookup_bags", start, end)
		}
		return nil
	}()
	stop()
	<-done
	if err != nil {
		return 0, err
	}
	return lookupWaitMs(rec), nil
}

// lookupWaitMs is the median serve-layer self time of a lookup: the
// part of each serve.lookup_bags span during which no facade QueryBatch
// was running (coalescing window, admission, assembly).
func lookupWaitMs(rec *recorder) float64 {
	var lookups, batches []span
	for _, s := range rec.snapshot() {
		switch s.Name {
		case "serve.lookup_bags":
			lookups = append(lookups, s)
		case "secndp.query_batch":
			batches = append(batches, s)
		}
	}
	sort.Slice(batches, func(i, j int) bool { return batches[i].StartNs < batches[j].StartNs })
	waits := make([]float64, len(lookups))
	for i, l := range lookups {
		waits[i] = ms(selfTime(l, overlapping(l, batches)))
	}
	return median(waits)
}
