package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"secndp/internal/telemetry"
)

// span is one timed call into a layer, recorded by the benchmark itself
// around the public entry point it calls. Spans of one request share Req;
// Parent names the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the recorder's epoch.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced phases pay one nil check per call site.
// Past maxSpans it counts instead of keeping, bounding memory and the
// size of the written trace.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

const maxSpans = 1 << 18

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a completed span and returns its ID (0 on a nil recorder).
func (r *recorder) add(parent uint64, req int64, name string, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := uint64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		StartNs: start.Sub(r.epoch).Nanoseconds(),
		EndNs:   end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// byName returns the durations (ms) of every span with the given name.
func (r *recorder) byName(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of
// the parent; only the union of their parts inside the parent counts.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.StartNs, parent.StartNs), min(c.EndNs, parent.EndNs)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	started := false
	for _, v := range ivs {
		switch {
		case !started:
			curLo, curHi, started = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if started {
		covered += curHi - curLo
	}
	return parent.dur() - time.Duration(covered)
}

// overlapping returns the spans of pool whose interval intersects s;
// pool must be sorted by StartNs.
func overlapping(s span, pool []span) []span {
	// Spans starting after s ends cannot overlap; earlier ones may, if
	// long enough, so scan back from the cut.
	cut := sort.Search(len(pool), func(i int) bool { return pool[i].StartNs >= s.EndNs })
	var out []span
	for i := cut - 1; i >= 0; i-- {
		if pool[i].EndNs > s.StartNs {
			out = append(out, pool[i])
		}
		if s.StartNs-pool[i].StartNs > int64(time.Second) {
			break // no facade call in these workloads lasts a second
		}
	}
	return out
}

// harvestEngineSpans polls the registry's recent-span ring until ctx ends
// and re-records every new engine span named op into rec under name, so
// calls the program makes internally (the serve layer's coalesced
// QueryBatch) land beside the benchmark's own spans. The ring is polled
// often enough that it cannot wrap between polls at these workloads'
// rates; the number of polls that found the ring possibly wrapped is
// returned so a lossy harvest is visible.
func harvestEngineSpans(ctx context.Context, reg *telemetry.Registry, rec *recorder, op, name string) (wrapped int) {
	type key struct {
		start int64
		total time.Duration
	}
	seen := make(map[key]bool)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	poll := func() {
		recent := reg.Traces(telemetry.DefaultTraceCapacity)
		fresh := 0
		for _, s := range recent {
			k := key{s.Start.UnixNano(), s.Total}
			if s.Op != op || seen[k] {
				continue
			}
			seen[k] = true
			fresh++
			rec.add(0, 0, name, s.Start, s.Start.Add(s.Total))
		}
		if fresh == len(recent) && len(recent) == telemetry.DefaultTraceCapacity {
			wrapped++
		}
	}
	for {
		select {
		case <-ctx.Done():
			poll()
			return wrapped
		case <-tick.C:
			poll()
		}
	}
}

// snap wraps a registry snapshot with lookups by metric name.
type snap struct {
	counters map[string]uint64
	hists    map[string]telemetry.HistSnap
	raw      telemetry.Snapshot
}

func takeSnap(reg *telemetry.Registry) snap {
	raw := reg.Snapshot()
	s := snap{counters: map[string]uint64{}, hists: map[string]telemetry.HistSnap{}, raw: raw}
	for _, c := range raw.Counters {
		s.counters[c.Name] = c.Value
	}
	for _, g := range raw.Gauges {
		if g.Value >= 0 {
			s.counters[g.Name] = uint64(g.Value)
		}
	}
	for _, h := range raw.Histograms {
		s.hists[h.Name] = h
	}
	return s
}

// minus returns the counters and histograms accumulated between an
// earlier snapshot a and s.
func (s snap) minus(a snap) snap {
	d := snap{counters: map[string]uint64{}, hists: map[string]telemetry.HistSnap{}, raw: s.raw}
	for k, v := range s.counters {
		d.counters[k] = v - min(v, a.counters[k])
	}
	for k, h := range s.hists {
		prev, ok := a.hists[k]
		if ok && len(prev.Counts) == len(h.Counts) {
			counts := make([]uint64, len(h.Counts))
			for i := range counts {
				counts[i] = h.Counts[i] - prev.Counts[i]
			}
			h.Counts, h.Count, h.SumNs = counts, h.Count-prev.Count, h.SumNs-prev.SumNs
		}
		d.hists[k] = h
	}
	return d
}

func (s snap) c(name string) float64 { return float64(s.counters[name]) }

// histP50Ms estimates a histogram's median in ms by linear interpolation
// inside the bucket holding the middle observation.
func (s snap) histP50Ms(name string) float64 {
	h := s.hists[name]
	if h.Count == 0 {
		return 0
	}
	target := float64(h.Count) / 2
	var cum float64
	for i, n := range h.Counts {
		if n > 0 && cum+float64(n) >= target {
			var lo, hi float64
			if i > 0 {
				lo = float64(h.BoundsNs[i-1])
			}
			if i < len(h.BoundsNs) {
				hi = float64(h.BoundsNs[i])
			} else {
				hi = lo // +Inf bucket: report its lower edge
			}
			return (lo + (target-cum)/float64(n)*(hi-lo)) / 1e6
		}
		cum += float64(n)
	}
	return 0
}

// writeTrace writes the run's spans (one JSON object per line) and the
// registry snapshots next to each other under dir.
func writeTrace(dir string, rec *recorder, snaps map[string]telemetry.Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rec.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(snaps, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "registry.json"), b, 0o644); err != nil {
		return fmt.Errorf("write registry snapshot: %w", err)
	}
	return nil
}
