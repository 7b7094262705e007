package secndp

import (
	"context"
	"math/rand"
	"testing"

	"secndp/internal/core"
	"secndp/internal/memory"
)

// Worker-count scaling of the query engine: the verified protocol over a
// query large enough (512 rows) for the OTP half to shard, at 1 to 8
// workers. On a multi-core machine more workers are expected to be
// faster; per-op allocations stay flat because each shard reuses pooled
// scratch.

const (
	benchParRows  = 4096
	benchParCols  = 64
	benchParBatch = 512
)

func benchQueryCtxWorkers(b *testing.B, workers int) {
	_, mem, tab, _ := benchTable(b, memory.TagSep, benchParRows, benchParCols, 32)
	ndp := &core.HonestNDP{Mem: mem}
	rng := rand.New(rand.NewSource(43))
	idx := make([]int, benchParBatch)
	w := make([]uint64, benchParBatch)
	for k := range idx {
		idx[k] = rng.Intn(benchParRows)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	ctx := context.Background()
	opts := core.QueryOptions{Workers: workers, Verify: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.QueryCtx(ctx, ndp, idx, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryCtxSerial(b *testing.B)    { benchQueryCtxWorkers(b, 1) }
func BenchmarkQueryCtxParallel2(b *testing.B) { benchQueryCtxWorkers(b, 2) }
func BenchmarkQueryCtxParallel4(b *testing.B) { benchQueryCtxWorkers(b, 4) }
func BenchmarkQueryCtxParallel8(b *testing.B) { benchQueryCtxWorkers(b, 8) }

// BenchmarkPadCacheHotRows measures the cache's payoff on DLRM-like skew:
// the same 64 hot rows dominate every unverified query, so after warmup
// nearly every pad comes from the cache instead of AES regeneration.
func BenchmarkPadCacheHotRows(b *testing.B) {
	_, mem, tab, _ := benchTable(b, memory.TagSep, benchParRows, benchParCols, 32)
	ndp := &core.HonestNDP{Mem: mem}
	rng := rand.New(rand.NewSource(44))
	idx := make([]int, benchParBatch)
	w := make([]uint64, benchParBatch)
	for k := range idx {
		idx[k] = rng.Intn(64)
		w[k] = 1 + uint64(rng.Intn(16))
	}
	ctx := context.Background()
	cache := core.NewPadCache(128)
	opts := core.QueryOptions{Workers: 1, Cache: cache}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.QueryCtx(ctx, ndp, idx, w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFacadeQuery exercises the public entry point end to end.
func BenchmarkFacadeQuery(b *testing.B) {
	eng, err := New(benchKey, WithParallelism(8), WithPadCache(256))
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(45))
	rows := make([][]uint64, 1024)
	for i := range rows {
		rows[i] = make([]uint64, 32)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 16)
		}
	}
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: 1024, Cols: 32}, rows)
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, 80)
	w := make([]uint64, 80)
	for k := range idx {
		idx[k] = rng.Intn(1024)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	req := Request{Idx: idx, Weights: w}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQueryParallel is the telemetry acceptance fixture: the public
// Query on an 8-worker engine over the reference batch, with or without
// a registry attached. The contract is that the instrumented run stays
// within 2% of the bare one — recording is a handful of atomics per
// query, not per row.
func benchQueryParallel(b *testing.B, opts ...Option) {
	b.Helper()
	eng, err := New(benchKey, append([]Option{WithParallelism(8), WithPadCache(256)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	mem := NewMemory()
	rng := rand.New(rand.NewSource(46))
	rows := make([][]uint64, benchParRows)
	for i := range rows {
		rows[i] = make([]uint64, benchParCols)
		for j := range rows[i] {
			rows[i][j] = rng.Uint64() % (1 << 16)
		}
	}
	tab, err := eng.CreateTable(context.Background(), LocalBackend(mem), TableSpec{Rows: benchParRows, Cols: benchParCols}, rows)
	if err != nil {
		b.Fatal(err)
	}
	defer tab.Close()
	idx := make([]int, benchParBatch)
	w := make([]uint64, benchParBatch)
	for k := range idx {
		idx[k] = rng.Intn(benchParRows)
		w[k] = 1 + uint64(rng.Intn(4))
	}
	req := Request{Idx: idx, Weights: w}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tab.Query(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParallel is the bare engine: telemetry disabled, every
// record site one nil check.
func BenchmarkQueryParallel(b *testing.B) { benchQueryParallel(b) }

// BenchmarkQueryParallelTelemetry runs the same workload with a live
// registry: counters, per-phase histograms, and a span per query.
func BenchmarkQueryParallelTelemetry(b *testing.B) {
	benchQueryParallel(b, WithTelemetry(NewTelemetry()))
}
