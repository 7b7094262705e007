package main

import (
	"context"
	"fmt"
	"math/rand"

	"secndp"
)

// benchKey is the fixed engine key. Table contents and query streams are
// what the seed varies; the key does not change what a query costs.
var benchKey = []byte("secbench-key-128")

// valueBits bounds every plaintext element below 2^20, so a PF=80 sum
// with weights up to maxWeight stays far below 2^32: no workload ever
// trips the scheme's overflow check.
const (
	valueBits = 20
	maxWeight = 8
)

// contents names one generation of one table's plaintext (32-bit
// elements, the width every workload uses). Elements are a pure function
// of (seed, gen, table, row, col), so the oracle recomputes any row on
// demand instead of keeping a plaintext copy of a 128 MiB table alive.
type contents struct {
	seed       int64
	gen        int
	table      int
	rows, cols int
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (c contents) value(i, j int) uint64 {
	h := splitmix(uint64(c.seed)*0x100000001b3 ^ uint64(c.gen)<<48 ^ uint64(c.table)<<40)
	h = splitmix(h ^ uint64(i)<<8 ^ uint64(j))
	return h & (1<<valueBits - 1)
}

// materialize builds the [][]uint64 CreateTable takes.
func (c contents) materialize() [][]uint64 {
	flat := make([]uint64, c.rows*c.cols)
	out := make([][]uint64, c.rows)
	for i := range out {
		out[i] = flat[i*c.cols : (i+1)*c.cols : (i+1)*c.cols]
		for j := range out[i] {
			out[i][j] = c.value(i, j)
		}
	}
	return out
}

// oracle returns the plaintext weighted sum mod 2^32 that a query over
// idx/weights must produce. nil weights mean all ones.
func (c contents) oracle(idx []int, weights []uint64) []uint64 {
	const mask = 1<<32 - 1
	out := make([]uint64, c.cols)
	for k, i := range idx {
		w := uint64(1)
		if weights != nil {
			w = weights[k]
		}
		for j := range out {
			out[j] += w * c.value(i, j)
		}
	}
	for j := range out {
		out[j] &= mask
	}
	return out
}

func (c contents) check(idx []int, weights []uint64, got []uint64) error {
	want := c.oracle(idx, weights)
	if len(got) != len(want) {
		return fmt.Errorf("oracle: %d columns, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j] != want[j] {
			return fmt.Errorf("oracle: column %d = %d, want %d (table %d gen %d)", j, got[j], want[j], c.table, c.gen)
		}
	}
	return nil
}

// weightsFor draws n weights in [1, maxWeight].
func weightsFor(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for k := range w {
		w[k] = 1 + uint64(rng.Intn(maxWeight))
	}
	return w
}

// loopbackCluster is a set of in-process NDP servers on 127.0.0.1, one
// per shard, optionally mirroring their counters into a registry.
type loopbackCluster struct {
	servers []*secndp.Server
	specs   []secndp.ShardSpec
}

func startCluster(shards int, reg *secndp.Telemetry) (*loopbackCluster, error) {
	lc := &loopbackCluster{}
	for i := 0; i < shards; i++ {
		srv := secndp.NewServer(secndp.NewMemory())
		srv.Instrument(reg) // a nil registry is a no-op
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			lc.close()
			return nil, fmt.Errorf("start shard %d: %w", i, err)
		}
		lc.servers = append(lc.servers, srv)
		lc.specs = append(lc.specs, secndp.ShardSpec{Addr: addr})
	}
	return lc, nil
}

func (lc *loopbackCluster) backend() secndp.Backend { return secndp.ClusterBackend(lc.specs...) }

func (lc *loopbackCluster) close() {
	for _, s := range lc.servers {
		s.Close()
	}
}

// regionSpec places table slot of a shared memory at a disjoint region,
// as the shipped secndp-dlrm service lays out its tables: data, then its
// separate tags, then a 1 MiB gap before the next slot.
func regionSpec(name string, slot, rows, cols int) secndp.TableSpec {
	rowBytes := uint64(cols * 4)
	span := uint64(rows)*rowBytes*2 + (1 << 20)
	base := uint64(0x1000) + uint64(slot)*span
	return secndp.TableSpec{
		Name: name, Rows: rows, Cols: cols,
		Base: base, TagBase: base + uint64(rows)*rowBytes,
	}
}

// spotCheck verifies one small batch of a freshly created table
// against the oracle, so a broken provisioning path fails the run instead
// of skewing its timings.
func spotCheck(ctx context.Context, tab *secndp.Table, c contents, rng *rand.Rand) error {
	reqs := make([]secndp.Request, 4)
	for q := range reqs {
		idx := make([]int, 8)
		for k := range idx {
			idx[k] = rng.Intn(c.rows)
		}
		reqs[q] = secndp.Request{Idx: idx, Weights: weightsFor(rng, len(idx))}
	}
	res, err := tab.QueryBatch(ctx, reqs)
	for q := 0; err == nil && q < len(reqs); q++ {
		err = c.check(reqs[q].Idx, reqs[q].Weights, res[q].Values)
	}
	if err != nil {
		return fmt.Errorf("spot check of table %d gen %d: %w", c.table, c.gen, err)
	}
	return nil
}
