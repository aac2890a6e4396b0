package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/boehmgc"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/criu"
	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

// The three workloads replay the grids `oohbench` runs by default for
// Fig. 4, Figs. 7-9 and Fig. 5, cell by cell on one goroutine, with the
// same sizes, seeds and call order, so every virtual-time value matches
// the corresponding table entry (fidelity_test.go pins one cell of each).

// pass is one run of a workload's whole grid.
type pass struct {
	r    *recorder
	d    *digest
	seed uint64
	// verify attaches a tracking.Verifier to every monitored cell.
	verify bool
	// detached runs gc-observed without its observability planes.
	detached bool

	pages  int64        // pages returned by Collect
	rounds int64        // criu dump rounds
	dumped int64        // criu page dumps
	obs    string       // hash of the observability exports, "" when detached
	rt     runtimeStats // Go runtime activity during the pass
	wall   time.Duration
}

// grids maps each workload name to its grid.
var grids = map[string]func(*pass) error{
	"micro-track":     (*pass).micro,
	"criu-checkpoint": (*pass).criu,
	"gc-observed":     (*pass).gc,
}

// wrap hands out the timed technique for proc.
func (p *pass) wrap(inner tracking.Technique, proc *guestos.Process) *timedTech {
	return &timedTech{Technique: inner, p: p, proc: proc}
}

func (p *pass) boot(cfg machine.Config) (*machine.Machine, error) {
	var m *machine.Machine
	err := p.r.call(spBoot, func() (err error) {
		m, err = machine.New(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	p.r.attach(m)
	return m, nil
}

func (p *pass) runs(run func() error, n int) error {
	for i := 0; i < n; i++ {
		if err := p.r.call(spRun, run); err != nil {
			return err
		}
	}
	return nil
}

// --- micro-track: Fig. 4 ------------------------------------------------------

// Table I / Fig. 4's memory axis (MB) and techniques, as oohbench runs
// them without -full.
var (
	microSizesMB = []int{1, 10, 50, 100, 250}
	microKinds   = []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML}
)

// microPasses is how many array-parser passes one measurement makes.
const microPasses = 3

// microRounds is how many pass-then-Collect rounds follow the Fig. 4
// measurement on the monitored machine, so every cell adds several Collect
// latencies to the run's percentiles.
const microRounds = 3

// microWarm is one size's booted and warmed image, forked by every cell.
type microWarm struct {
	snap   *machine.Snapshot
	pid    guestos.Pid
	region guestos.Region
}

type microResult struct {
	ideal, tracked time.Duration
	stats          tracking.Stats
	fetch          core.FetchBreakdown
}

func (p *pass) micro() error {
	warm := make(map[int]*microWarm)
	cell := 0
	for _, kind := range microKinds {
		for _, mb := range microSizesMB {
			p.r.cell = cell
			cell++
			res, err := p.microCell(kind, mb<<8, warm)
			p.r.detach()
			if err != nil {
				return fmt.Errorf("micro-track %v/%dMB: %w", kind, mb, err)
			}
			s, f := res.stats, res.fetch
			p.d.add("micro", int64(kind), int64(mb), int64(res.ideal), int64(res.tracked),
				int64(s.InitTime), int64(s.CollectTime), int64(s.CloseTime), int64(s.Collections), s.Reported,
				int64(f.RingCopy), int64(f.PTWalk), int64(f.ReverseMap), int64(f.Entries))
		}
	}
	return nil
}

// microCell runs one Fig. 4 cell: the ideal passes on one fork of the
// size's warm image, then the monitored passes and one Collect on another,
// which then runs microRounds more pass-then-Collect rounds. The first
// cell of a size boots and warms it.
func (p *pass) microCell(kind costmodel.Technique, pages int, warm map[int]*microWarm) (microResult, error) {
	var res microResult
	w := warm[pages]
	if w == nil {
		var err error
		if w, err = p.warmMicro(pages); err != nil {
			return res, err
		}
		warm[pages] = w
	}

	g, _, a, err := p.forkMicro(w, pages)
	if err != nil {
		return res, err
	}
	start := g.Kernel.Clock.Nanos()
	if err := p.runs(a.Run, microPasses); err != nil {
		return res, err
	}
	res.ideal = time.Duration(g.Kernel.Clock.Nanos() - start)

	g, proc, a, err := p.forkMicro(w, pages)
	if err != nil {
		return res, err
	}
	inner, err := g.NewTechnique(kind, proc)
	if err != nil {
		return res, err
	}
	tech := p.wrap(inner, proc)
	if err := tech.Init(); err != nil {
		return res, err
	}
	start = g.Kernel.Clock.Nanos()
	if err := p.runs(a.Run, microPasses); err != nil {
		return res, err
	}
	if _, err := tech.Collect(); err != nil {
		return res, err
	}
	res.tracked = time.Duration(g.Kernel.Clock.Nanos() - start)
	res.stats = inner.Stats()
	if pml, ok := inner.(*tracking.PMLTechnique); ok {
		res.fetch = pml.LastBreakdown()
	}
	for i := 0; i < microRounds; i++ {
		if err := p.runs(a.Run, 1); err != nil {
			return res, err
		}
		if _, err := tech.Collect(); err != nil {
			return res, err
		}
	}
	return res, tech.Close()
}

// warmMicro boots a machine, maps and touches the array, and captures the
// warm image.
func (p *pass) warmMicro(pages int) (*microWarm, error) {
	m, err := p.boot(machine.Config{})
	if err != nil {
		return nil, err
	}
	proc := m.Guest(0).Kernel.Spawn("micro")
	p.r.watch(proc)
	var a *workloads.ArrayParser
	err = p.r.call(spSetup, func() error {
		a = workloads.NewArrayParser(pages)
		return a.Setup(workloads.NewRegionAlloc(proc, true), sim.NewRNG(p.seed))
	})
	if err != nil {
		return nil, err
	}
	var snap *machine.Snapshot
	err = p.r.call(spSnapshot, func() (err error) {
		snap, err = m.CaptureSnapshot()
		return err
	})
	if err != nil {
		return nil, err
	}
	return &microWarm{snap: snap, pid: proc.Pid, region: a.Region()}, nil
}

func (p *pass) forkMicro(w *microWarm, pages int) (*machine.Guest, *guestos.Process, *workloads.ArrayParser, error) {
	var m *machine.Machine
	err := p.r.call(spFork, func() (err error) {
		m, err = w.snap.Fork(machine.Config{})
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	g := m.Guest(0)
	proc, ok := g.Kernel.Process(w.pid)
	if !ok {
		return nil, nil, nil, fmt.Errorf("fork lost pid %d", w.pid)
	}
	p.r.attach(m, proc)
	a := workloads.NewArrayParser(pages)
	a.Adopt(proc, w.region)
	return g, proc, a, nil
}

// --- criu-checkpoint: Figs. 7-9 -------------------------------------------------

// The CRIU figures' apps (all at Large) and techniques.
var (
	criuApps  = []string{"pca", "kmeans", "histogram", "baby", "tiny", "cache"}
	criuKinds = []costmodel.Technique{costmodel.Proc, costmodel.SPML, costmodel.EPML}
)

// criuRuns is how many workload passes surround the checkpoint.
const criuRuns = 3

type criuResult struct {
	stats          criu.Stats
	ideal, tracked time.Duration
	imagePages     int
}

func (p *pass) criu() error {
	cell := 0
	for _, app := range criuApps {
		for _, kind := range criuKinds {
			p.r.cell = cell
			cell++
			res, err := p.criuCell(app, kind)
			p.r.detach()
			if err != nil {
				return fmt.Errorf("criu-checkpoint %s/%v: %w", app, kind, err)
			}
			s := res.stats
			p.rounds += int64(s.Rounds)
			p.dumped += int64(s.Dumped)
			p.d.add("criu/"+app, int64(kind), int64(res.ideal), int64(res.tracked), int64(res.imagePages),
				int64(s.Init), int64(s.MD), int64(s.MW), int64(s.Total), int64(s.Wall),
				int64(s.Rounds), int64(s.Dumped), int64(s.Final), int64(s.CollectRetries))
		}
	}
	return nil
}

// criuCell runs one Figs. 7-9 cell: the workload's passes on a cold
// machine, then the same passes with a pre-copy checkpoint interleaved on
// another, restoring and verifying the image.
func (p *pass) criuCell(app string, kind costmodel.Technique) (criuResult, error) {
	var res criuResult
	g, _, w, err := p.bootApp(app)
	if err != nil {
		return res, err
	}
	start := g.Kernel.Clock.Nanos()
	if err := p.runs(w.Run, criuRuns); err != nil {
		return res, err
	}
	res.ideal = time.Duration(g.Kernel.Clock.Nanos() - start)

	g, proc, w, err := p.bootApp(app)
	if err != nil {
		return res, err
	}
	inner, err := g.NewTechnique(kind, proc)
	if err != nil {
		return res, err
	}
	tech := p.wrap(inner, proc)
	start = g.Kernel.Clock.Nanos()
	if err := p.runs(w.Run, 1); err != nil {
		return res, err
	}
	runs := 1
	var img *criu.Image
	err = p.r.call(spCheckpoint, func() (err error) {
		ckpt := criu.New(proc, tech, criu.Options{MaxRounds: criuRuns - 1, KeepRunning: true})
		img, res.stats, err = ckpt.Run(func(int) error {
			runs++
			return p.r.call(spRun, w.Run)
		})
		return err
	})
	if p.r.check(err) != nil {
		return res, err
	}
	res.imagePages = len(img.Pages)

	var restored *guestos.Process
	err = p.r.call(spRestore, func() (err error) {
		restored, err = criu.Restore(g.Kernel, img)
		return err
	})
	if err != nil {
		return res, err
	}
	p.r.watch(restored)
	err = p.r.call(spVerify, func() error { return criu.Verify(proc, restored) })
	if p.r.check(err) != nil {
		return res, err
	}

	// Pre-copy may converge early; finish the passes so the monitored run
	// does the ideal run's application work.
	if err := p.runs(w.Run, criuRuns-runs); err != nil {
		return res, err
	}
	res.tracked = time.Duration(g.Kernel.Clock.Nanos() - start)
	return res, nil
}

// bootApp boots a cold machine and sets up app at Large in a fresh
// process.
func (p *pass) bootApp(app string) (*machine.Guest, *guestos.Process, workloads.Workload, error) {
	m, err := p.boot(machine.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(app)
	p.r.watch(proc)
	var w workloads.Workload
	err = p.r.call(spSetup, func() (err error) {
		if w, err = workloads.New(app, workloads.Large, 1); err != nil {
			return err
		}
		return w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(p.seed))
	})
	return g, proc, w, err
}

// --- gc-observed: Fig. 5 --------------------------------------------------------

// Fig. 5's apps, configs and techniques, as oohbench runs them without
// -full.
var (
	gcApps  = []string{"gcbench", "histogram", "string-match"}
	gcSizes = []workloads.Size{workloads.Small, workloads.Medium}
	gcKinds = []costmodel.Technique{costmodel.Proc, costmodel.SPML, costmodel.EPML}
)

// gcPasses is how many workload passes run between forced GC cycles.
const gcPasses = 4

type gcResult struct {
	cycles                   []boehmgc.CycleStats
	appTime, gcTime, firstGC time.Duration
}

// planes are the four observability planes gc-observed attaches, fanned
// out one shard per grid cell and folded back in grid order after the
// grid, as oohbench -capture does.
type planes struct {
	mem  *trace.Memory
	tr   *trace.Tracer
	reg  *metrics.Registry
	prof *prof.Profiler
	mon  *monitor.Monitor

	shards []*trace.Shard
	regs   []*metrics.Registry
	profs  []*prof.Profiler
	mons   []*monitor.Monitor
}

// samplerInterval is oohbench's default -metrics-interval.
const samplerInterval = time.Millisecond

func newPlanes() *planes {
	pl := &planes{mem: &trace.Memory{}, reg: metrics.NewRegistry(), prof: prof.New(), mon: monitor.New(monitor.Config{})}
	pl.tr = trace.New(pl.mem, 0)
	pl.reg.NewSampler(samplerInterval)
	return pl
}

// cell returns a new cell's probes.
func (pl *planes) cell(i int) machine.Config {
	s := trace.NewShard(i, pl.tr.Mask())
	reg := metrics.NewRegistry()
	reg.NewSampler(samplerInterval)
	pr := prof.New()
	mon := pl.mon.Fork(i)
	pl.shards = append(pl.shards, s)
	pl.regs = append(pl.regs, reg)
	pl.profs = append(pl.profs, pr)
	pl.mons = append(pl.mons, mon)
	return machine.Config{Tracer: s.Tracer, Metrics: reg, Profiler: pr, Monitor: mon}
}

// export folds the shards and writes every plane's export in memory:
// trace JSONL, metrics JSONL and Prometheus text, folded and pprof
// profiles, and the explain report. It returns a hash of the bytes.
func (pl *planes) export() (string, error) {
	trace.Merge(pl.tr, pl.shards...)
	for i := range pl.regs {
		pl.reg.Merge(pl.regs[i])
		pl.prof.Merge(pl.profs[i])
		pl.mon.Merge(pl.mons[i])
	}
	if err := pl.tr.Close(); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	jw := trace.NewJSONLWriter(&buf)
	if err := jw.WriteBatch(pl.mem.Records()); err != nil {
		return "", err
	}
	if err := jw.Close(); err != nil {
		return "", err
	}
	snap := pl.reg.Snapshot()
	if err := snap.WriteJSONL(&buf); err != nil {
		return "", err
	}
	if err := snap.WritePrometheus(&buf); err != nil {
		return "", err
	}
	if err := pl.prof.WriteFolded(&buf); err != nil {
		return "", err
	}
	if err := pl.prof.WritePprof(&buf); err != nil {
		return "", err
	}
	explain, err := cliflags.ExplainJSON("hostbench gc-observed", pl.mon, pl.reg, pl.prof)
	if err != nil {
		return "", err
	}
	buf.Write(explain)
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

func (p *pass) gc() error {
	var pl *planes
	if !p.detached {
		pl = newPlanes()
	}
	cell := 0
	for _, app := range gcApps {
		for _, size := range gcSizes {
			for _, kind := range gcKinds {
				var cfg machine.Config
				if pl != nil {
					cfg = pl.cell(cell)
				}
				p.r.cell = cell
				cell++
				res, err := p.gcCell(app, size, kind, cfg)
				p.r.detach()
				if err != nil {
					return fmt.Errorf("gc-observed %s/%v/%v: %w", app, size, kind, err)
				}
				p.d.add("gc/"+app, int64(size), int64(kind), int64(res.appTime), int64(res.gcTime), int64(res.firstGC))
				for _, c := range res.cycles {
					inc := int64(0)
					if c.Incremental {
						inc = 1
					}
					p.d.add("cycle", int64(c.Cycle), inc, int64(c.TrackTime), int64(c.MarkTime), int64(c.SweepTime),
						int64(c.Total), int64(c.DirtyPages), int64(c.Scanned), int64(c.SkippedScan), int64(c.Freed), int64(c.Live))
				}
			}
		}
	}
	if pl == nil {
		return nil
	}
	p.r.cell = -1
	err := p.r.call(spExport, func() (err error) {
		p.obs, err = pl.export()
		return err
	})
	if err != nil {
		return fmt.Errorf("gc-observed export: %w", err)
	}
	return nil
}

// gcCell runs one Fig. 5 cell: app under Boehm incremental GC with kind
// supplying the dirty pages, tracked from the start, a forced cycle after
// each pass.
func (p *pass) gcCell(app string, size workloads.Size, kind costmodel.Technique, cfg machine.Config) (gcResult, error) {
	var res gcResult
	m, err := p.boot(cfg)
	if err != nil {
		return res, err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(app)
	p.r.watch(proc)

	var gc *boehmgc.GC
	err = p.r.call(spGCSetup, func() (err error) {
		// Size the heap to 3x the app's working set, clamped, as Fig. 5
		// does; gcbench keeps its default arena.
		heapBytes := uint64(48 << 20)
		if app != "gcbench" {
			if w, err := workloads.New(app, size, 1); err == nil {
				heapBytes = min(max(w.WorkingSet()*3, 8<<20), 512<<20)
			}
		}
		gc, err = boehmgc.New(proc, heapBytes, nil)
		return err
	})
	if err != nil {
		return res, err
	}
	inner, err := g.NewTechnique(kind, proc)
	if err != nil {
		return res, err
	}
	if pml, ok := inner.(*tracking.PMLTechnique); ok {
		// Boehm reuses the reverse index built in the first cycle.
		pml.ReuseReverseIndex = true
	}
	gc.Tech = p.wrap(inner, proc)
	if err := p.r.call(spGCSetup, gc.StartIncremental); err != nil {
		return res, err
	}

	start := g.Kernel.Clock.Nanos()
	var run func() error
	var bench *workloads.GCBench
	err = p.r.call(spSetup, func() error {
		if app == "gcbench" {
			bench = workloads.GCBenchConfig(size, 1)
			run = bench.Run
			return bench.SetupGC(gc, sim.NewRNG(p.seed))
		}
		w, err := workloads.New(app, size, 1)
		if err != nil {
			return err
		}
		run = w.Run
		return w.Setup(&workloads.GCAlloc{GC: gc}, sim.NewRNG(p.seed))
	})
	if err != nil {
		return res, err
	}
	for i := 0; i < gcPasses; i++ {
		if err := p.runs(run, 1); err != nil {
			return res, err
		}
		err := p.r.call(spGCCollect, func() error {
			_, err := gc.Collect()
			return err
		})
		if p.r.check(err) != nil {
			return res, err
		}
	}
	if bench != nil {
		if err := p.r.check(bench.CheckTree()); err != nil {
			return res, fmt.Errorf("gcbench invariant: %w", err)
		}
	}
	res.appTime = time.Duration(g.Kernel.Clock.Nanos() - start)
	res.cycles = gc.Cycles()
	res.gcTime = gc.TotalGCTime()
	if len(res.cycles) > 0 {
		res.firstGC = res.cycles[0].Total
	}
	return res, nil
}
