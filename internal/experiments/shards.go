package experiments

import (
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/trace"
)

// probeShards fans the observation plane out over a parallel experiment
// grid: one tracer shard and one metrics registry per grid cell, handed to
// the cell's worker goroutine, then folded into the destination planes
// after the par.ForEach barrier.
//
// Sharding is per cell, not per worker slot, on purpose: par.ForEach hands
// out indices dynamically, so which cells share a worker is a scheduling
// accident. A per-cell shard's contents depend only on the cell's seeded
// simulation, and the merge walks cells in grid order, so the merged
// stream and snapshot are byte-identical at any worker count - Workers=8
// observes exactly what Workers=1 does.
type probeShards struct {
	dst    machine.Config
	shards []*trace.Shard
	regs   []*metrics.Registry
	profs  []*prof.Profiler
	mons   []*monitor.Monitor
}

// newShards builds per-cell planes for an n-cell grid. Disabled planes
// stay disabled: a nil destination tracer/registry yields nil per-cell
// planes, so unobserved sweeps pay nothing.
func (o Options) newShards(n int) *probeShards {
	ps := &probeShards{dst: machine.Config{
		Tracer: o.Tracer, Metrics: o.Metrics, Profiler: o.Profiler, Monitor: o.Monitor,
	}}
	if ps.dst.Tracer != nil {
		ps.shards = make([]*trace.Shard, n)
		for i := range ps.shards {
			ps.shards[i] = trace.NewShard(i, ps.dst.Tracer.Mask())
		}
	}
	if ps.dst.Metrics != nil {
		ps.regs = make([]*metrics.Registry, n)
		for i := range ps.regs {
			ps.regs[i] = metrics.NewRegistry()
			if s := ps.dst.Metrics.Sampler(); s != nil {
				ps.regs[i].NewSampler(s.Interval())
			}
		}
	}
	if ps.dst.Profiler != nil {
		ps.profs = make([]*prof.Profiler, n)
		for i := range ps.profs {
			ps.profs[i] = prof.New()
		}
	}
	if ps.dst.Monitor != nil {
		ps.mons = make([]*monitor.Monitor, n)
		for i := range ps.mons {
			ps.mons[i] = ps.dst.Monitor.Fork(i)
		}
	}
	return ps
}

// cell returns the machine.Config that attaches grid cell i's planes.
func (ps *probeShards) cell(i int) machine.Config {
	var cfg machine.Config
	if ps.shards != nil {
		cfg.Tracer = ps.shards[i].Tracer
	}
	if ps.regs != nil {
		cfg.Metrics = ps.regs[i]
	}
	if ps.profs != nil {
		cfg.Profiler = ps.profs[i]
	}
	if ps.mons != nil {
		cfg.Monitor = ps.mons[i]
	}
	return cfg
}

// merge folds every cell's observations into the destination planes, in
// grid order. Call it after the fan-out barrier - including on error, so a
// failed sweep still surfaces what the completed cells observed.
func (ps *probeShards) merge() {
	if ps.dst.Tracer != nil {
		trace.Merge(ps.dst.Tracer, ps.shards...)
	}
	if ps.dst.Metrics != nil {
		for _, r := range ps.regs {
			ps.dst.Metrics.Merge(r)
		}
	}
	if ps.dst.Profiler != nil {
		for _, p := range ps.profs {
			ps.dst.Profiler.Merge(p)
		}
	}
	if ps.dst.Monitor != nil {
		for _, m := range ps.mons {
			ps.dst.Monitor.Merge(m)
		}
	}
}
