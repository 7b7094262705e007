package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"secndp/internal/field"
	"secndp/internal/memory"
	"secndp/internal/otp"
	"secndp/internal/telemetry"
)

// This file is the single query engine: the software counterpart of the
// paper's OTP PU mirroring one NDP PU in lockstep (§V-C2). The OTP half —
// each row's data pads and tag pad out of one fused keystream pass — runs
// on the caller's goroutine, sharded across a worker pool only for queries
// long enough to repay the goroutine start-up. The NDP half runs inline
// for in-process NDPs and overlaps the OTP half in one background
// goroutine only for round-trip (ContextNDP) transports.

// QueryOptions tunes one query or batch through the query engine.
// The zero value selects GOMAXPROCS workers, no cache, no verification.
type QueryOptions struct {
	// Workers is the OTP-side parallelism: goroutines sharding the pad
	// loop of a query of at least 2·ctxCheckStride (128) rows, or of a
	// batch. Shorter queries run on the caller's goroutine. <= 0 selects
	// GOMAXPROCS.
	Workers int
	// Cache, when non-nil, serves hot rows' pads without AES regeneration.
	// The cache must be dedicated to this table and version.
	Cache *PadCache
	// Verify runs Algorithm 5 (encrypted-MAC check) after Algorithm 4.
	Verify bool
	// Phases, when non-nil, receives the query's per-phase wall-clock
	// breakdown. For in-process NDPs the phases run one after the other;
	// a round-trip NDP overlaps the pad and tag phases, so then they do
	// not sum to the query's total latency.
	Phases *PhaseTimes
	// Stats, when non-nil, receives batch-coalescing counters from
	// QueryBatchCtx (ignored by single-query entry points).
	Stats *BatchStats
}

// PhaseTimes is one query's anatomy: how long each architectural half
// took. Pad is the fused keystream pass (data-pad share regeneration +
// accumulate, and the tag pads when verifying), NDP the untrusted round
// trip (ciphertext sums, plus tag sums when verifying), Tag the tag-pad
// field fold, Verify the final join (share addition, checksum recompute,
// MAC compare). Phases that did not run stay zero.
type PhaseTimes struct {
	Pad, NDP, Tag, Verify time.Duration
}

func (o QueryOptions) workerCount(items int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ctxCheckStride bounds how many rows a worker processes between
// cancellation checks.
const ctxCheckStride = 64

// otpRange runs the OTP half over idx[lo:hi] in ctxCheckStride-row
// chunks, checking for cancellation between them: acc accumulates
// weights[k]·pad(idx[k]), and when tagPads is non-nil,
// tagPads[16k:16k+16] receives row idx[k]'s tag pad. Uncached verified
// chunks go through the fused pad+tag kernel; only cache misses
// materialize an unpacked pad vector.
func (t *Table) otpRange(ctx context.Context, idx []int, weights []uint64, lo, hi int, cache *PadCache, acc []uint64, tagPads []byte) error {
	we := t.geo.Params.We
	var buf []byte // staging for cache insertion
	if cache != nil {
		bp, b := getByteScratch(t.geo.Params.RowBytes())
		defer putByteScratch(bp)
		buf = b
	}
	var addrs [ctxCheckStride]uint64
	for k := lo; k < hi; k += ctxCheckStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(k+ctxCheckStride, hi)
		a := addrs[:end-k]
		for r := range a {
			a[r] = t.geo.Layout.RowAddr(idx[k+r])
		}
		var tags []byte
		if tagPads != nil {
			tags = tagPads[k*otp.BlockBytes : end*otp.BlockBytes]
		}
		switch {
		case cache != nil:
			for r, addr := range a {
				pads, ok := cache.get(idx[k+r])
				if !ok {
					t.scheme.gen.PadsInto(buf, otp.DomainData, addr, t.version)
					pads = t.r.UnpackElems(buf)
					cache.put(idx[k+r], pads)
				}
				t.r.ScaleAccum(acc, weights[k+r], pads)
			}
			if tags != nil {
				t.scheme.gen.TagPads(tags, a, t.version)
			}
		case tags != nil:
			t.scheme.gen.PadTagScaleAccum(acc, we, weights[k:end], a, t.version, tags)
		default:
			for r, addr := range a {
				t.scheme.gen.PadScaleAccum(acc, weights[k+r], we, otp.DomainData, addr, t.version)
			}
		}
	}
	return nil
}

// otpShares runs the OTP half of one query into eres (zeroed, length M)
// and, when tagPads is non-nil, tagPads (16 bytes per row). A query of at
// least 2·ctxCheckStride rows splits into contiguous shards of at least
// ctxCheckStride rows across up to opts.Workers goroutines, the caller's
// included: partial share vectors merge with ring additions (addition
// commutes with the sharding, so the result is bit-identical to the
// serial walk) and tag pads land in disjoint slices.
func (t *Table) otpShares(ctx context.Context, idx []int, weights []uint64, opts QueryOptions, eres []uint64, tagPads []byte) error {
	n := len(idx)
	w := 1
	if n >= 2*ctxCheckStride {
		w = opts.workerCount(n / ctxCheckStride)
	}
	if w == 1 {
		return t.otpRange(ctx, idx, weights, 0, n, opts.Cache, eres, tagPads)
	}
	chunk := (n + w - 1) / w
	errs := make([]error, w)
	toks := make([]*[]uint64, w)
	parts := make([][]uint64, w)
	var wg sync.WaitGroup
	for s := 1; s < w && s*chunk < n; s++ {
		toks[s], parts[s] = getU64Zeroed(len(eres))
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			errs[s] = t.otpRange(ctx, idx, weights, lo, hi, opts.Cache, parts[s], tagPads)
		}(s, s*chunk, min((s+1)*chunk, n))
	}
	errs[0] = t.otpRange(ctx, idx, weights, 0, chunk, opts.Cache, eres, tagPads)
	wg.Wait()
	var err error
	for s := range parts {
		if err == nil {
			err = errs[s]
		}
		if toks[s] != nil {
			t.r.AddVec(eres, eres, parts[s])
			putU64Scratch(toks[s])
		}
	}
	return err
}

// foldTagPads returns Σ_k weights[k]·E_T[k] mod q over gathered tag pads
// (16 bytes each) through the vectorized field kernel.
func foldTagPads(tagPads []byte, weights []uint64) field.Elem {
	ep, elems := getElemScratch(len(weights))
	for k := range elems {
		elems[k] = field.FromBytes(tagPads[k*otp.BlockBytes:])
	}
	var acc field.Acc
	acc.ScaleAccum(elems, weights)
	putElemScratch(ep)
	return acc.Sum()
}

// ndpOutputs collects what one query needs from the NDP side.
type ndpOutputs struct {
	cres  []uint64
	cTres field.Elem
	err   error
	dur   time.Duration // round-trip elapsed; set only when phases are recorded
}

// runNDP executes the ciphertext-side half of a query under an "ndp"
// child span, preferring the context-aware transport when the NDP offers
// one and converting panics (the legacy transport's failure mode) into
// errors. The child context threads down into the cluster and wire
// layers, so their spans nest under "ndp".
func runNDP(ctx context.Context, span *telemetry.ActiveSpan, ndp NDP, geo Geometry, idx []int, weights []uint64, verify, timed bool) (out ndpOutputs) {
	nctx, nspan := ctx, (*telemetry.ActiveSpan)(nil)
	if span != nil {
		nctx, nspan = span.StartChild(ctx, "ndp")
	}
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			out.err = fmt.Errorf("core: ndp failed: %v", r)
		}
		if timed {
			out.dur = time.Since(t0)
		}
		nspan.EndErr(out.err, telemetry.ErrClassTransport)
	}()
	if cn, ok := ndp.(ContextNDP); ok {
		out.cres, out.err = cn.WeightedSumContext(nctx, geo, idx, weights)
		if out.err == nil && verify {
			out.cTres, out.err = cn.TagSumContext(nctx, geo, idx, weights)
		}
		return
	}
	out.cres = ndp.WeightedSum(geo, idx, weights)
	if verify {
		out.cTres = ndp.TagSum(geo, idx, weights)
	}
	return
}

// QueryCtx runs the weighted-summation protocol of Algorithm 4 — and,
// with opts.Verify, the encrypted-MAC check of Algorithm 5 on the joined
// result (a rejected result returns ErrVerification). It is the one
// single-query engine: every other single-query entry point wraps it.
//
// The OTP half runs on the caller's goroutine (see otpShares for when it
// shards). An in-process NDP runs inline after it; a round-trip
// ContextNDP runs in one background goroutine so its round trip overlaps
// the OTP half, mirroring the paper's OTP engines running ahead of the
// NDP response (§V-C2). A nil ctx means context.Background().
func (t *Table) QueryCtx(ctx context.Context, ndp NDP, idx []int, weights []uint64, opts QueryOptions) ([]uint64, error) {
	if err := t.checkQuery(idx, weights); err != nil {
		return nil, err
	}
	if opts.Verify && t.geo.Layout.Placement == memory.TagNone {
		return nil, fmt.Errorf("%w; disable verification for Enc-only tables", ErrNoTags)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pt := opts.Phases
	// Architectural-phase child spans when the context carries a trace;
	// nil span (the common untraced path) makes every call below a
	// nil-check no-op.
	span := telemetry.SpanFromContext(ctx)
	var ndpCh chan ndpOutputs
	if _, ok := ndp.(ContextNDP); ok {
		ndpCh = make(chan ndpOutputs, 1)
		go func() { ndpCh <- runNDP(ctx, span, ndp, t.geo, idx, weights, opts.Verify, pt != nil) }()
	}

	ep, eres := getU64Zeroed(t.geo.Params.M)
	defer putU64Scratch(ep)
	var tagPads []byte
	if opts.Verify {
		tp, b := getByteScratch(len(idx) * otp.BlockBytes)
		defer putByteScratch(tp)
		tagPads = b
	}
	var t0 time.Time
	if pt != nil {
		t0 = time.Now()
	}
	pspan := span.Child("pad")
	err := t.otpShares(ctx, idx, weights, opts, eres, tagPads)
	pspan.EndErr(err, telemetry.ErrClassCanceled)
	if pt != nil {
		pt.Pad = time.Since(t0)
	}
	var eTres field.Elem
	if err == nil && opts.Verify {
		if pt != nil {
			t0 = time.Now()
		}
		tspan := span.Child("tag")
		eTres = foldTagPads(tagPads, weights)
		tspan.End()
		if pt != nil {
			pt.Tag = time.Since(t0)
		}
	}

	var nd ndpOutputs
	if ndpCh != nil {
		nd = <-ndpCh
	} else if err == nil {
		nd = runNDP(ctx, span, ndp, t.geo, idx, weights, opts.Verify, pt != nil)
	}
	if pt != nil {
		pt.NDP = nd.dur
	}
	if err != nil {
		return nil, err
	}
	if nd.err != nil {
		return nil, nd.err
	}
	if len(nd.cres) != t.geo.Params.M {
		return nil, fmt.Errorf("core: ndp returned %d columns, want %d", len(nd.cres), t.geo.Params.M)
	}

	vspan := span.Child("verify")
	if pt != nil {
		t0 = time.Now()
	}
	res := t.Decrypt(nd.cres, eres)
	if opts.Verify && !t.Checksum(res).Equal(field.Add(nd.cTres, eTres)) {
		res, err = nil, ErrVerification
	}
	if pt != nil {
		pt.Verify = time.Since(t0)
	}
	vspan.EndErr(err, telemetry.ErrClassVerify)
	return res, err
}

// QueryBatchCtx runs many queries as one coalesced batch when the NDP
// supports it: one wire exchange for every sub-request's ciphertext and
// tag sums, each distinct row's OTP pad generated once and scattered to
// all requesters, and a single aggregated tag verification over the whole
// batch (bisecting to isolate failures). Per-request results and errors
// are byte-identical to running QueryCtx per request.
//
// NDPs without batch support — or a batch-level transport failure — fall
// back to the request-level worker pool, which still shares one pad cache
// across the batch. Cancellation marks the remaining requests with
// ctx.Err().
func (t *Table) QueryBatchCtx(ctx context.Context, ndp NDP, reqs []BatchRequest, opts QueryOptions) []BatchResult {
	if len(reqs) == 0 {
		return make([]BatchResult, 0)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Stats != nil {
		*opts.Stats = BatchStats{Requests: len(reqs)}
	}
	if bn, ok := ndp.(BatchNDP); ok && bn.SupportsBatch(ctx) {
		if out, err := t.queryBatchPipelined(ctx, bn, reqs, opts); err == nil {
			return out
		}
		// Batch-level failure (transport trouble, capability raced away):
		// the fan-out path re-runs everything per request.
	}
	if opts.Stats != nil {
		opts.Stats.Pipelined = false
	}
	return t.queryBatchFanout(ctx, ndp, reqs, opts)
}

// queryBatchFanout is the per-request batch path: a request-level worker
// pool over independent QueryCtx calls.
func (t *Table) queryBatchFanout(ctx context.Context, ndp NDP, reqs []BatchRequest, opts QueryOptions) []BatchResult {
	out := make([]BatchResult, len(reqs))
	workers := opts.workerCount(len(reqs))
	per := opts
	per.Workers = 1
	// A shared PhaseTimes across concurrent requests would race; batch
	// phase breakdowns belong to the per-request spans of the caller.
	per.Phases = nil
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := t.QueryCtx(ctx, ndp, reqs[i].Idx, reqs[i].Weights, per)
				out[i] = BatchResult{Res: res, Err: err}
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
