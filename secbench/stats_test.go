package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4) (method "exclusive"); the expected values
// were produced by that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 4, 5},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{StartNs: 100, EndNs: 200}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"one inside", []span{{StartNs: 120, EndNs: 150}}, 70},
		{"overlapping pair counts its union", []span{{StartNs: 110, EndNs: 150}, {StartNs: 130, EndNs: 170}}, 40},
		{"nested", []span{{StartNs: 110, EndNs: 190}, {StartNs: 120, EndNs: 130}}, 20},
		{"disjoint", []span{{StartNs: 110, EndNs: 120}, {StartNs: 180, EndNs: 190}}, 80},
		{"sticking out is clipped", []span{{StartNs: 50, EndNs: 120}, {StartNs: 190, EndNs: 300}}, 70},
		{"outside entirely", []span{{StartNs: 0, EndNs: 100}, {StartNs: 200, EndNs: 250}}, 100},
		{"covers all", []span{{StartNs: 90, EndNs: 210}, {StartNs: 150, EndNs: 160}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestOverlapping(t *testing.T) {
	pool := []span{{ID: 1, StartNs: 0, EndNs: 50}, {ID: 2, StartNs: 40, EndNs: 300}, {ID: 3, StartNs: 150, EndNs: 160}, {ID: 4, StartNs: 200, EndNs: 210}}
	got := overlapping(span{StartNs: 100, EndNs: 200}, pool)
	ids := map[uint64]bool{}
	for _, s := range got {
		ids[s.ID] = true
	}
	if len(got) != 2 || !ids[2] || !ids[3] {
		t.Errorf("overlapping = %+v, want spans 2 and 3", got)
	}
}

// fakeClock advances only when slept on, and by whatever a launch costs.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestOpenLoopTimesFromDueTime checks that a stall in the dispatcher is
// charged to every request it delayed: the schedule does not shift, so
// requests issued late record their full delay from the due time.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{now: t0}
	var dues []time.Time
	var latency []time.Duration
	late := openLoop(context.Background(), clk, t0, t0.Add(10*time.Millisecond), 1000, func(k int, due time.Time) {
		dues = append(dues, due)
		if k == 2 {
			clk.advance(3500 * time.Microsecond) // the dispatcher stalls
		}
		// Service is instant: latency from due is launch time minus due.
		latency = append(latency, clk.Now().Sub(due))
	})
	if len(dues) != 10 {
		t.Fatalf("issued %d requests, want 10", len(dues))
	}
	for k, due := range dues {
		if want := t0.Add(time.Duration(k) * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v (schedule must not shift)", k, due, want)
		}
	}
	wantLate := []time.Duration{0, 0, 0, 2500 * time.Microsecond, 1500 * time.Microsecond, 500 * time.Microsecond, 0, 0, 0, 0}
	for k, w := range wantLate {
		if late[k] != w {
			t.Errorf("request %d lateness %v, want %v", k, late[k], w)
		}
	}
	if latency[3] != 2500*time.Microsecond {
		t.Errorf("request 3 latency %v, want 2.5ms counted from its due time", latency[3])
	}
}
