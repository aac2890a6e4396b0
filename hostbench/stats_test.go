package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/boehmgc"
	"repro/internal/costmodel"
	"repro/internal/criu"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func TestCollectPercentilesNeedHundredSamples(t *testing.T) {
	lat := make([]time.Duration, 0, minCollectSamples)
	for i := minCollectSamples; i >= 1; i-- { // unsorted on purpose
		lat = append(lat, time.Duration(i)*time.Millisecond)
	}
	if _, _, ok := collectPercentiles(lat[:minCollectSamples-1]); ok {
		t.Fatalf("percentiles reported from %d samples", minCollectSamples-1)
	}
	p50, p90, ok := collectPercentiles(lat)
	// For samples 1..n the Harrell-Davis q-quantile is about n*q + 1/2.
	if !ok || math.Abs(p50-50.5) > 1e-6 || math.Abs(p90-90.5) > 0.05 {
		t.Fatalf("got p50=%v p90=%v ok=%v, want 50.5, ~90.5, true", p50, p90, ok)
	}
}

func TestBetaInc(t *testing.T) {
	for _, c := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},       // uniform
		{2, 1, 0.5, 0.25},      // x^2
		{1, 3, 0.5, 0.875},     // 1-(1-x)^3
		{50.5, 50.5, 0.5, 0.5}, // symmetric
		{90.9, 10.1, 1, 1},     // upper end
		{577, 64, 0.5, 0},      // far below the mass
		{577, 64, 0.999, 1},    // far above it
	} {
		if got := betaInc(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("betaInc(%v, %v, %v) = %v, want %v", c.a, c.b, c.x, got, c.want)
		}
	}
}

// fakeClock drives a traced recorder's host clock by hand.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) advance(d time.Duration) { c.t += d }

func tracedRecorder(c *fakeClock) *recorder {
	r := newRecorder(true)
	r.now = func() time.Duration { return c.t }
	return r
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	var c fakeClock
	r := tracedRecorder(&c)
	step := func(d time.Duration) func() error { return func() error { c.advance(d); return nil } }
	c.advance(3) // outside any span
	r.call(spCheckpoint, func() error {
		c.advance(10)
		r.call(spRun, step(30))
		r.call(spCollect, func() error {
			c.advance(20)
			return nil
		})
		c.advance(5)
		return nil
	})
	r.call(spGCCollect, func() error {
		c.advance(7)
		return r.call(spCollect, step(4))
	})
	c.advance(2)

	self, rooted := selfTimes(r.spans)
	want := map[string]time.Duration{spCheckpoint: 15, spRun: 30, spCollect: 24, spGCCollect: 7}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
	if rooted != 76 {
		t.Errorf("rooted = %v, want 76", rooted)
	}
	if got := r.spans[2].Parent; r.spans[got].Name != spCheckpoint {
		t.Errorf("collect's parent is %q, want %q", r.spans[got].Name, spCheckpoint)
	}
}

// newTracedPass returns a traced pass on a booted machine with a warmed
// n-page array parser bound.
func newTracedPass(t *testing.T, pages int) (*pass, *machine.Guest, *workloads.ArrayParser) {
	t.Helper()
	p := &pass{r: newRecorder(true), d: newDigest(), seed: 1}
	m, err := p.boot(machine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("test")
	p.r.watch(proc)
	a := workloads.NewArrayParser(pages)
	if err := a.Setup(workloads.NewRegionAlloc(proc, true), sim.NewRNG(1)); err != nil {
		t.Fatal(err)
	}
	return p, g, a
}

// checkPartition fails unless every span's self time is non-negative and
// the self times sum to the rooted time.
func checkPartition(t *testing.T, spans []span) {
	t.Helper()
	self, rooted := selfTimes(spans)
	var sum time.Duration
	for name, d := range self {
		if d < 0 {
			t.Errorf("self[%s] = %v < 0", name, d)
		}
		sum += d
	}
	if sum != rooted {
		t.Errorf("self times sum to %v, rooted spans cover %v", sum, rooted)
	}
}

// parentsOf counts the parent span names of every span called name.
func parentsOf(spans []span, name string) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		if s.Name == name && s.Parent >= 0 {
			out[spans[s.Parent].Name]++
		}
	}
	return out
}

func TestCollectThroughCRIUNestsUnderCheckpoint(t *testing.T) {
	p, g, a := newTracedPass(t, 16)
	proc, _ := g.Kernel.Process(1)
	inner, err := g.NewTechnique(costmodel.EPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	tech := p.wrap(inner, proc)
	err = p.r.call(spCheckpoint, func() error {
		_, _, err := criu.New(proc, tech, criu.Options{MaxRounds: 1}).Run(func(int) error {
			return p.r.call(spRun, a.Run)
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{spInit, spCollect, spClose, spRun} {
		if got := parentsOf(p.r.spans, name); got[spCheckpoint] == 0 || len(got) != 1 {
			t.Errorf("%s parents = %v, want only %s", name, got, spCheckpoint)
		}
	}
	checkPartition(t, p.r.spans)
}

func TestCollectThroughBoehmNestsUnderGCCollect(t *testing.T) {
	p, g, _ := newTracedPass(t, 1)
	proc := g.Kernel.Spawn("gc")
	p.r.watch(proc)
	gc, err := boehmgc.New(proc, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := g.NewTechnique(costmodel.SPML, proc)
	if err != nil {
		t.Fatal(err)
	}
	gc.Tech = p.wrap(inner, proc)
	if err := p.r.call(spGCSetup, gc.StartIncremental); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		obj, err := gc.Alloc(64, 1)
		if err != nil {
			t.Fatal(err)
		}
		gc.AddRoot(obj)
		if err := p.r.call(spGCCollect, func() error { _, err := gc.Collect(); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if got := parentsOf(p.r.spans, spCollect); got[spGCCollect] != 3 || len(got) != 1 {
		t.Errorf("tracking.collect parents = %v, want 3 under %s", got, spGCCollect)
	}
	if got := parentsOf(p.r.spans, spInit); got[spGCSetup] != 1 {
		t.Errorf("tracking.init parents = %v, want one under %s", got, spGCSetup)
	}
	checkPartition(t, p.r.spans)
}

func TestCounterDeltasPerCall(t *testing.T) {
	const pages = 8
	p, _, a := newTracedPass(t, pages)
	err := p.r.call(spCheckpoint, func() error {
		if err := p.r.call(spRun, a.Run); err != nil {
			return err
		}
		return p.r.call(spRun, a.Run)
	})
	if err != nil {
		t.Fatal(err)
	}
	n := len(p.r.spans) // after the boot span
	outer, first, second := p.r.spans[n-3], p.r.spans[n-2], p.r.spans[n-1]
	for _, s := range []span{first, second} {
		if got := s.Delta[ctrWrite]; got != pages {
			t.Errorf("workloads.run write_ops delta = %d, want %d (one word per page)", got, pages)
		}
	}
	var sum counts
	sum.add(first.Delta)
	sum.add(second.Delta)
	if outer.Delta != sum {
		t.Errorf("outer delta %v != sum of its calls %v", outer.Delta, sum)
	}
	p.r.detach()
	if got := p.r.totals[ctrWrite]; got != 3*pages {
		t.Errorf("machine total write_ops = %d, want %d (warm-up + two passes)", got, 3*pages)
	}
}
