// Package monitor is the online monitoring plane of the simulator: a
// deterministic, virtual-time subsystem that watches runs while they
// execute, where internal/trace and internal/metrics only record them for
// post-hoc analysis.
//
// It is fed from the existing instrumentation rather than from sites of its
// own: cpu.VCPU.Event, the one call every layer reports an event through,
// hands each event to the monitor after the trace and metrics planes, and
// the checkpoint and migration drivers feed their pre-copy round
// boundaries directly. From those two streams the monitor maintains:
//
//   - online dirty-page-rate estimators (windowed and EWMA), per VM and
//     per source mechanism (PML log, EPML log, soft-dirty, ufd) plus per
//     armed tracking technique, exposed as monitor/* gauges;
//   - declarative alert rules ("metric op threshold for duration", plus
//     downtime-budget burn-rate windows) evaluated on the clock-driven
//     sampler tick, appending to a deterministic alert timeline and
//     emitting mon_alert trace records;
//   - a rounds-to-converge predictor that extrapolates each pre-copy
//     dirty-set series and flags non-convergence before the SLO guard
//     trips, emitting mon_predict trace records.
//
// Design constraints, identical to trace/metrics/prof:
//
//   - Free when disabled: a nil *Monitor is valid; every method on a nil
//     receiver is a single-branch no-op with zero allocations.
//   - Deterministic: only virtual time and integer arithmetic; two runs
//     with the same seed produce byte-identical snapshots.
//   - Observation only: the monitor never advances the virtual clock.
//   - Single-goroutine: one Monitor belongs to one simulation goroutine.
//     Parallel experiment grids Fork one monitor per cell and fold them
//     back with Merge after the barrier, in grid order, so output is
//     byte-identical at any worker count.
package monitor

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/costmodel"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Alert states on the timeline.
const (
	StateFiring   = "firing"
	StateResolved = "resolved"
	StatePredict  = "predict"
)

// SubMigration and SubCRIU name the two round-boundary feeds.
const (
	SubMigration = "migration"
	SubCRIU      = "criu"
)

// Config parameterizes a monitor.
type Config struct {
	// Rules are the alert rules evaluated on every tick (see ParseRules).
	Rules []Rule
	// Interval is the evaluation/sampling tick in virtual time
	// (default 1ms), the monitor's analogue of the metrics sampler tick.
	Interval time.Duration
	// Window is the trailing span of the windowed rate estimators
	// (default 8x Interval).
	Window time.Duration
	// AlphaPermille is the EWMA smoothing factor in per-mille
	// (default 250: each tick moves the average 25% toward the
	// instantaneous rate).
	AlphaPermille int64
	// Shard tags this monitor's timeline entries with a grid cell index;
	// leave 0 for single-cell runs. Fork sets it for grid cells.
	Shard int
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 8 * c.Interval
	}
	if c.AlphaPermille <= 0 || c.AlphaPermille > 1000 {
		c.AlphaPermille = 250
	}
	return c
}

// Alert is one entry on the monitor's timeline: a rule transition
// (firing/resolved) or a convergence prediction flag.
type Alert struct {
	TS        int64  `json:"ts"`   // virtual ns
	Cell      int    `json:"cell"` // grid cell (0 outside grids)
	Seq       int    `json:"seq"`  // per-cell emission sequence
	Rule      string `json:"rule"` // canonical rule text, or "convergence"
	State     string `json:"state"`
	VM        int32  `json:"vm"` // -1 for registry-wide rules
	Value     int64  `json:"value"`
	Threshold int64  `json:"threshold"`
	Detail    string `json:"detail,omitempty"`
}

// Prediction is one convergence-predictor flag: the extrapolated verdict
// on a pre-copy dirty-set series at the round it was raised.
type Prediction struct {
	TS            int64  `json:"ts"`
	Cell          int    `json:"cell"`
	VM            int32  `json:"vm"`
	Sub           string `json:"sub"` // "migration" or "criu"
	Round         int    `json:"round"`
	Dirty         int    `json:"dirty"`          // dirty pages this round
	RatioPermille int64  `json:"ratio_permille"` // dirty[n]/dirty[n-1], per-mille
	// RoundsToConverge extrapolates how many more rounds until the dirty
	// set fits the convergence target; -1 = never within the round budget.
	RoundsToConverge int   `json:"rounds_to_converge"`
	EstDowntimeNs    int64 `json:"est_downtime_ns"`
	BudgetNs         int64 `json:"budget_ns,omitempty"`
}

// roundKey identifies one pre-copy round series.
type roundKey struct {
	cell int
	vm   int32
	sub  string
}

// roundSeries accumulates one checkpoint/migration's dirty-only round
// sizes and the predictor state derived from them.
type roundSeries struct {
	key     roundKey
	dirty   []int
	ratioPm int64
	toGo    int // rounds-to-converge; -1 never
	flagged bool
}

// burnPoint is one downtime-budget burn observation (per-mille of budget).
type burnPoint struct {
	ts int64
	pm int64
}

// Monitor is the online monitoring plane of one simulation run (or, after
// Merge, of a whole sharded grid). The zero value is not usable; use New.
// A nil *Monitor is a valid disabled monitor.
type Monitor struct {
	cfg      Config
	interval int64
	window   int64

	tracer *trace.Tracer
	reg    *metrics.Registry
	ev     *metrics.Events // self-observation bridge for mon_* kinds

	started bool
	next    int64

	est      map[estKey]*estimator
	estOrder []estKey
	techByVM map[int32]costmodel.Technique

	rules  []*ruleState
	burn   []burnPoint
	rounds map[roundKey]*roundSeries

	timeline    []Alert
	predictions []Prediction
	seq         int
}

// New returns a monitor with the given configuration.
func New(cfg Config) *Monitor {
	cfg = cfg.withDefaults()
	m := &Monitor{
		cfg:      cfg,
		interval: cfg.Interval.Nanoseconds(),
		window:   cfg.Window.Nanoseconds(),
		est:      make(map[estKey]*estimator),
		techByVM: make(map[int32]costmodel.Technique),
		rounds:   make(map[roundKey]*roundSeries),
	}
	for _, r := range cfg.Rules {
		m.rules = append(m.rules, &ruleState{rule: r, since: -1})
	}
	return m
}

// Rules returns the canonical text of every installed rule.
func (m *Monitor) Rules() []string {
	if m == nil {
		return nil
	}
	out := make([]string, len(m.rules))
	for i, rs := range m.rules {
		out[i] = rs.rule.String()
	}
	return out
}

// Attach binds the monitor to a run's trace and metrics planes: alerts
// are emitted as mon_alert/mon_predict trace records and estimator values
// are published as monitor/* gauges. Re-attaching (a bench sweep reusing
// one monitor across scenario machines) rebinds the planes and keeps the
// accumulated state. Nil-receiver safe; either plane may be nil.
func (m *Monitor) Attach(tr *trace.Tracer, reg *metrics.Registry) {
	if m == nil {
		return
	}
	m.tracer = tr
	if reg != m.reg {
		m.reg = reg
		m.ev = metrics.NewEvents(reg)
		// Re-resolve the gauges of existing estimators against the new
		// registry.
		for _, k := range m.estOrder {
			e := m.est[k]
			e.rateG = reg.Gauge(metrics.SubMonitor, "dirty_rate_pps", e.label)
			e.ewmaG = reg.Gauge(metrics.SubMonitor, "dirty_rate_ewma_pps", e.label)
		}
	}
}

// ObserveKind receives one event of kind k on VM vm: cpu.VCPU.Event calls
// it for every event it reports, which is how the estimators see PML/EPML
// log appends, soft-dirty and ufd faults, and per-technique collection
// results without any instrumentation sites of their own. It never
// advances the clock.
func (m *Monitor) ObserveKind(vm int32, k trace.Kind, now, cost, arg int64) {
	if m == nil {
		return
	}
	switch k {
	case trace.KindPMLLog:
		m.bump(vm, srcPML, 1)
	case trace.KindEPMLLog:
		m.bump(vm, srcEPML, 1)
	case trace.KindSoftDirtyFault:
		m.bump(vm, srcSoftDirty, 1)
	case trace.KindUfdFault:
		m.bump(vm, srcUfd, 1)
	case trace.KindTrackInit:
		m.techByVM[vm] = costmodel.Technique(arg)
	case trace.KindTrackCollect:
		if arg > 0 {
			m.bump(vm, srcTechBase+source(m.techByVM[vm]), arg)
		}
	}
	m.tick(vm, now)
}

// bump adds n observed dirty pages to the (vm, src) estimator, creating
// it (and its gauges) on first use.
func (m *Monitor) bump(vm int32, src source, n int64) {
	k := estKey{vm: vm, src: src}
	e := m.est[k]
	if e == nil {
		e = &estimator{label: estLabel(vm, src)}
		e.rateG = m.reg.Gauge(metrics.SubMonitor, "dirty_rate_pps", e.label)
		e.ewmaG = m.reg.Gauge(metrics.SubMonitor, "dirty_rate_ewma_pps", e.label)
		m.est[k] = e
		m.estOrder = append(m.estOrder, k)
	}
	e.bump(n)
}

// estLabel renders an estimator's stable label ("vm0/pml",
// "vm0/tech/EPML", ...).
func estLabel(vm int32, src source) string {
	if src >= srcTechBase {
		return fmt.Sprintf("vm%d/tech/%s", vm, costmodel.Technique(src-srcTechBase))
	}
	return fmt.Sprintf("vm%d/%s", vm, srcNames[src])
}

// tick runs one evaluation pass if at least one interval elapsed since
// the previous one, mirroring the metrics sampler's schedule exactly: the
// first tick anchors the schedule, a backwards clock re-anchors it (the
// monitor was re-attached to a fresh machine), and catch-up bursts are
// never emitted.
func (m *Monitor) tick(vm int32, now int64) {
	if !m.started {
		m.started = true
		m.evaluate(vm, now)
		m.next = now + m.interval
		return
	}
	if now < m.next-m.interval {
		m.evaluate(vm, now)
		m.next = now + m.interval
		return
	}
	if now < m.next {
		return
	}
	m.evaluate(vm, now)
	m.next = m.next + ((now-m.next)/m.interval+1)*m.interval
}

// evaluate folds every estimator to now, publishes the gauges, and runs
// every rule's state machine.
func (m *Monitor) evaluate(vm int32, now int64) {
	for _, k := range m.estOrder {
		e := m.est[k]
		e.fold(now, m.window, m.cfg.AlphaPermille)
		e.rateG.Set(e.rate)
		e.ewmaG.Set(e.ewma)
	}
	for _, rs := range m.rules {
		v := m.ruleValue(rs.rule, now)
		transition := rs.evaluate(now, v)
		if transition == "" {
			continue
		}
		m.alert(Alert{
			TS: now, Rule: rs.rule.String(), State: transition, VM: -1,
			Value: v, Threshold: rs.rule.Threshold,
		}, trace.KindMonAlert, vm)
	}
}

// ruleValue reads the rule's current value: the windowed burn-rate
// average for burn rules, otherwise the referenced counter or gauge (a
// missing series reads as zero - rules may predate the metrics they
// watch).
func (m *Monitor) ruleValue(r Rule, now int64) int64 {
	if r.Burn {
		return m.burnAverage(now-r.Window, now)
	}
	if c := m.reg.LookupCounter(r.Sub, r.Name, r.Label); c != nil {
		return c.Value()
	}
	return m.reg.LookupGauge(r.Sub, r.Name, r.Label).Value()
}

// burnAverage averages the burn observations in (from, to].
func (m *Monitor) burnAverage(from, to int64) int64 {
	var sum, n int64
	for i := len(m.burn) - 1; i >= 0; i-- {
		p := m.burn[i]
		if p.ts > to {
			continue
		}
		if p.ts <= from {
			break
		}
		sum += p.pm
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// alert appends one timeline entry and mirrors it into the trace and
// metrics planes (kind mon_alert or mon_predict).
func (m *Monitor) alert(a Alert, kind trace.Kind, vm int32) {
	a.Cell = m.cfg.Shard
	a.Seq = m.seq
	m.seq++
	m.timeline = append(m.timeline, a)
	if tr := m.tracer; tr.Enabled(kind) {
		tr.Emit(trace.Record{Kind: kind, TS: a.TS, VM: vm, Arg: a.Value})
	}
	m.ev.Observe(kind, a.TS, 0, a.Value)
}

// Alerts returns the timeline in deterministic (TS, cell, seq) order.
func (m *Monitor) Alerts() []Alert {
	if m == nil {
		return nil
	}
	out := append([]Alert(nil), m.timeline...)
	sortAlerts(out)
	return out
}

// Predictions returns every convergence flag raised, in (TS, cell) order.
func (m *Monitor) Predictions() []Prediction {
	if m == nil {
		return nil
	}
	out := append([]Prediction(nil), m.predictions...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

func sortAlerts(a []Alert) {
	sort.SliceStable(a, func(i, j int) bool {
		if a[i].TS != a[j].TS {
			return a[i].TS < a[j].TS
		}
		if a[i].Cell != a[j].Cell {
			return a[i].Cell < a[j].Cell
		}
		return a[i].Seq < a[j].Seq
	})
}
