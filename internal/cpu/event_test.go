package cpu

import (
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestEvent pins the one emission path: for each combination of attached
// planes, Event must emit the exact trace record when the mask admits the
// kind, bump the kind's metrics triple and tick the sampler at the clock's
// current time, and feed the monitor's estimator - and touch nothing that
// is not attached.
func TestEvent(t *testing.T) {
	const k = trace.KindPMLLog
	cases := []struct {
		name             string
		mask             uint64 // tracer enable mask; 0 = no tracer
		metrics, monitor bool
	}{
		{name: "no planes"},
		{name: "tracer mask excludes kind", mask: trace.AllKinds &^ (1 << k)},
		{name: "metrics only", metrics: true},
		{name: "tracer, metrics and monitor", mask: trace.AllKinds, metrics: true, monitor: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clock := &sim.Clock{}
			clock.Advance(5000)
			v := &VCPU{ID: 3, Clock: clock}
			var sink trace.Memory
			if c.mask != 0 {
				v.Tracer = trace.New(&sink, 0)
				v.Tracer.SetMask(c.mask)
			}
			var reg *metrics.Registry
			if c.metrics {
				reg = metrics.NewRegistry()
				reg.NewSampler(time.Millisecond)
				v.Met = metrics.NewEvents(reg)
				v.Met.WatchDefaults()
			}
			var mon *monitor.Monitor
			if c.monitor {
				mon = monitor.New(monitor.Config{})
				mon.Attach(v.Tracer, reg)
				v.Mon = mon
			}

			v.Event(k, 4000, 1000, 0xABC000, 7)
			if err := v.Tracer.Flush(); err != nil {
				t.Fatal(err)
			}
			if clock.Nanos() != 5000 {
				t.Fatalf("Event advanced the clock to %d", clock.Nanos())
			}

			recs := sink.Records()
			if c.mask&(1<<k) == 0 {
				if len(recs) != 0 {
					t.Errorf("emitted %v with kind %v masked off", recs, k)
				}
			} else {
				want := trace.Record{Kind: k, VM: 3, TS: 4000, Cost: 1000, Addr: 0xABC000, Arg: 7}
				if len(recs) != 1 || recs[0] != want {
					t.Errorf("records %+v, want [%+v]", recs, want)
				}
			}

			sub := metrics.KindSubsystem(k)
			if reg != nil {
				if got := reg.LookupCounter(sub, metrics.NameEvents, k.String()).Value(); got != 1 {
					t.Errorf("events = %d, want 1", got)
				}
				h := reg.Histogram(sub, metrics.NameEventCostNs, k.String())
				if h.Count() != 1 || h.Sum() != 1000 {
					t.Errorf("event_cost_ns count %d sum %d, want 1 and 1000", h.Count(), h.Sum())
				}
				if got := reg.LookupCounter(sub, metrics.NameEventArgSum, k.String()).Value(); got != 7 {
					t.Errorf("event_arg_total = %d, want 7", got)
				}
				series := reg.Sampler().SeriesList()
				if len(series) == 0 {
					t.Fatal("no sampled series")
				}
				for _, s := range series {
					if len(s.Points) != 1 || s.Points[0].TS != 5000 {
						t.Errorf("series %s points %v, want one sample at ts 5000", s.Name, s.Points)
					}
				}
			}

			if mon != nil {
				est := mon.Snapshot().Estimators
				if len(est) != 1 || est[0].Name != "vm3/pml" || est[0].Pages != 1 {
					t.Errorf("estimators %+v, want vm3/pml with 1 page", est)
				}
			}
		})
	}

	// tracking's watch holds a nil *VCPU when no vCPU is bound.
	var nilV *VCPU
	nilV.Event(k, 0, 0, 0, 0)
}

// TestEventDisabledZeroAlloc is the emission path's half of the CI
// zero-alloc guard: a vCPU with no plane attached (and a nil vCPU) must
// not allocate per event.
func TestEventDisabledZeroAlloc(t *testing.T) {
	v := &VCPU{ID: 1, Clock: &sim.Clock{}}
	var nilV *VCPU
	allocs := testing.AllocsPerRun(1000, func() {
		v.Event(trace.KindPMLLog, 1, 2, 3, 4)
		nilV.Event(trace.KindPMLLog, 1, 2, 3, 4)
	})
	if allocs != 0 {
		t.Fatalf("disabled Event allocates %.1f per run, want 0", allocs)
	}
}

// TestEventEnabledZeroAlloc: with every plane attached, the steady state
// (ring not yet full, series and estimators already created, no sampling
// interval elapsed) must not allocate either.
func TestEventEnabledZeroAlloc(t *testing.T) {
	v := &VCPU{ID: 1, Clock: &sim.Clock{}}
	v.Tracer = trace.New(trace.Discard{}, 1<<12)
	reg := metrics.NewRegistry()
	reg.NewSampler(time.Millisecond)
	v.Met = metrics.NewEvents(reg)
	v.Met.WatchDefaults()
	v.Mon = monitor.New(monitor.Config{})
	v.Mon.Attach(v.Tracer, reg)
	allocs := testing.AllocsPerRun(1000, func() {
		v.Event(trace.KindPMLLog, 1, 2, 3, 0)
		v.Event(trace.KindTrackCollect, 1, 2, 0, 64)
	})
	if allocs != 0 {
		t.Fatalf("enabled Event allocates %.1f per run, want 0", allocs)
	}
}
