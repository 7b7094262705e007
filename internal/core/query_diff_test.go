package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"secndp/internal/field"
	"secndp/internal/memory"
)

// ctxHonestNDP is HonestNDP behind the ContextNDP interface, which steers
// QueryCtx onto its overlapped arm (the NDP half in a background
// goroutine) while computing exactly what HonestNDP computes.
type ctxHonestNDP struct{ HonestNDP }

func (c *ctxHonestNDP) WeightedSumContext(ctx context.Context, geo Geometry, idx []int, weights []uint64) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.WeightedSum(geo, idx, weights), nil
}

func (c *ctxHonestNDP) TagSumContext(ctx context.Context, geo Geometry, idx []int, weights []uint64) (field.Elem, error) {
	if err := ctx.Err(); err != nil {
		return field.Zero, err
	}
	return c.TagSum(geo, idx, weights), nil
}

var _ ContextNDP = (*ctxHonestNDP)(nil)

// errClass buckets a query error for the differential comparison.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrVerification):
		return "verify"
	case errors.Is(err, ErrIndexRange):
		return "index"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "other: " + err.Error()
	}
}

// diffCase is one query and the error class the oracle predicts for it;
// "ok" cases must also match the plaintext oracle value.
type diffCase struct {
	name     string
	idx      []int
	w        []uint64
	canceled bool
	want     string
}

// TestQueryCtxDifferential runs QueryCtx over every arm of the engine —
// verify on/off, with and without a pad cache, serial and sharded OTP
// halves (PF 300 crosses the 2·ctxCheckStride shard threshold), inline
// and overlapped NDP halves — against the plaintext oracle, comparing
// both the value and the error class, including tampered rows and tags,
// ring overflow, a bad index and a canceled context.
func TestQueryCtxDifferential(t *testing.T) {
	const n, m, we = 512, 16, 32
	s := newTestScheme(t)
	mem := memory.NewSpace()
	geo := mkGeometry(memory.TagSep, n, m, we)
	rng := rand.New(rand.NewSource(61))
	rows := boundedRows(rng, n, m, 1<<16)
	for j := range rows[n-1] {
		rows[n-1][j] = 3 // the overflow row: 3 · 2^31 · 3 wraps mod 2^32
	}
	tab, err := s.EncryptTable(mem, geo, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	const tamperedRow, tamperedTag = 7, 11
	mem.FlipBit(geo.Layout.RowAddr(tamperedRow)+3, 1)
	mem.FlipBit(geo.Layout.TagAddr(tamperedTag), 5)

	// query draws pf rows away from the tampered and overflow rows.
	query := func(pf int) ([]int, []uint64) {
		idx := make([]int, pf)
		w := make([]uint64, pf)
		for k := range idx {
			for idx[k] = rng.Intn(n - 1); idx[k] == tamperedRow || idx[k] == tamperedTag; {
				idx[k] = rng.Intn(n - 1)
			}
			w[k] = 1 + rng.Uint64()%16
		}
		return idx, w
	}
	with := func(idx []int, w []uint64, pos, row int) ([]int, []uint64) {
		idx = append([]int(nil), idx...)
		idx[pos] = row
		return idx, w
	}
	var cases []diffCase
	for _, pf := range []int{1, 80, 300} {
		idx, w := query(pf)
		cases = append(cases, diffCase{name: fmt.Sprintf("pf%d", pf), idx: idx, w: w, want: "ok"})
		ti, tw := with(idx, w, pf/2, tamperedRow)
		cases = append(cases, diffCase{name: fmt.Sprintf("pf%d/tampered-row", pf), idx: ti, w: tw, want: "verify"})
		gi, gw := with(idx, w, pf-1, tamperedTag)
		cases = append(cases, diffCase{name: fmt.Sprintf("pf%d/tampered-tag", pf), idx: gi, w: gw, want: "verify"})
		bi, bw := with(idx, w, 0, n)
		cases = append(cases, diffCase{name: fmt.Sprintf("pf%d/bad-index", pf), idx: bi, w: bw, want: "index"})
		cases = append(cases, diffCase{name: fmt.Sprintf("pf%d/canceled", pf), idx: idx, w: w, canceled: true, want: "canceled"})
	}
	cases = append(cases, diffCase{
		name: "overflow", idx: []int{n - 1, n - 1, n - 1},
		w: []uint64{1 << 31, 1 << 31, 1 << 31}, want: "verify",
	})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ndps := []struct {
		name string
		ndp  NDP
	}{
		{"honest", &HonestNDP{Mem: mem}},
		{"context", &ctxHonestNDP{HonestNDP{Mem: mem}}},
	}
	for _, nd := range ndps {
		for _, verify := range []bool{false, true} {
			for _, cached := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					var cache *PadCache
					if cached {
						cache = NewPadCache(64)
					}
					opts := QueryOptions{Workers: workers, Cache: cache, Verify: verify}
					for _, c := range cases {
						name := fmt.Sprintf("%s/verify=%v/cache=%v/workers=%d/%s", nd.name, verify, cached, workers, c.name)
						want := c.want
						if !verify && want == "verify" {
							// Without the MAC check a tampered or
							// overflowing query returns a value; only
							// overflow has a predictable one (the ring sum).
							if c.name != "overflow" {
								continue
							}
							want = "ok"
						}
						ctx := context.Background()
						if c.canceled {
							ctx = canceled
						}
						got, err := tab.QueryCtx(ctx, nd.ndp, c.idx, c.w, opts)
						if class := errClass(err); class != want {
							t.Errorf("%s: error class %q, want %q", name, class, want)
							continue
						}
						if err != nil {
							continue
						}
						oracle := plainWeightedSum(geo, rows, c.idx, c.w)
						for j := range oracle {
							if got[j] != oracle[j] {
								t.Errorf("%s: col %d = %d, oracle %d", name, j, got[j], oracle[j])
								break
							}
						}
					}
				}
			}
		}
	}
}
