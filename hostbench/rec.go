package main

import (
	"time"

	"repro/internal/cpu"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Span names: "<layer>.<func>", one per exported call the benchmark times.
// A span's self time is its duration minus the time its child spans cover,
// so the self times of one pass partition the host time its root spans
// take.
const (
	spBoot       = "machine.boot"     // machine.New
	spSnapshot   = "machine.snapshot" // Machine.CaptureSnapshot
	spFork       = "machine.fork"     // Snapshot.Fork
	spSetup      = "workloads.setup"  // workloads.New + Setup
	spRun        = "workloads.run"    // Workload.Run
	spInit       = "tracking.init"    // Technique.Init
	spCollect    = "tracking.collect" // Technique.Collect
	spClose      = "tracking.close"   // Technique.Close
	spCheckpoint = "criu.checkpoint"  // criu.New(...).Run
	spRestore    = "criu.restore"     // criu.Restore
	spVerify     = "criu.verify"      // criu.Verify
	spGCSetup    = "boehmgc.setup"    // boehmgc.New + StartIncremental
	spGCCollect  = "boehmgc.collect"  // GC.Collect
	spExport     = "obs.export"       // shard merge + every plane's export
)

// spanNames lists every span name in report order.
var spanNames = []string{
	spBoot, spSnapshot, spFork, spSetup, spRun, spInit, spCollect, spClose,
	spCheckpoint, spRestore, spVerify, spGCSetup, spGCCollect, spExport,
}

// isSetup reports whether a span's time belongs to the setup_s metric:
// booting, workload set-up, snapshotting and forking.
func isSetup(name string) bool {
	return name == spBoot || name == spSetup || name == spSnapshot || name == spFork
}

// modelCounters are the simulated-model counts read around every timed
// call: vCPU counters by name, plus the page-table walk count (empty
// counter name). They depend only on the simulation, so a host-only change
// leaves every one of them identical.
var modelCounters = []struct{ metric, counter string }{
	{"cpu.read_ops", cpu.CtrReadOps},
	{"cpu.write_ops", cpu.CtrWriteOps},
	{"cpu.vmexits", cpu.CtrVMExits},
	{"cpu.pml_logs", cpu.CtrPMLLogs},
	{"cpu.epml_logs", cpu.CtrEPMLLogs},
	{"cpu.guest_faults", cpu.CtrGuestFaults},
	{"pgtable.walk_ops", ""},
	{"hypervisor.hypercalls", cpu.CtrHypercalls},
	{"hypervisor.pml_full_exits", cpu.CtrPMLFullExits},
	{"hypervisor.ring_entries_copied", hypervisor.CtrRingCopied},
	{"guestos.softdirty_faults", guestos.CtrSoftDirtyFaults},
	{"guestos.ufd_faults", guestos.CtrUfdFaults},
	{"guestos.clear_refs", guestos.CtrClearRefs},
	{"guestos.pagemap_pages", guestos.CtrPagemapPages},
	{"guestos.context_switches", guestos.CtrContextSwitches},
}

// Indices into counts for the counters the metrics combine.
const (
	ctrRead  = 0
	ctrWrite = 1
)

// counts holds one reading (or delta) of modelCounters, in order.
type counts [15]int64

func (c counts) sub(o counts) counts {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c *counts) add(o counts) {
	for i := range c {
		c[i] += o[i]
	}
}

// accesses is the simulated guest memory operations in c.
func (c counts) accesses() int64 { return c[ctrRead] + c[ctrWrite] }

// binding is the machine whose counters the recorder reads: its vCPU and
// the processes whose page tables it walks.
type binding struct {
	phys  *mem.PhysMem
	vcpu  *cpu.VCPU
	procs []*guestos.Process
	walks int64 // page-table walks consumed so far (WalkOps resets on read)
	base  counts
}

func (b *binding) read() counts {
	var c counts
	snap := b.vcpu.Counters.Snapshot()
	for _, p := range b.procs {
		b.walks += p.PT.WalkOps()
	}
	for i, mc := range modelCounters {
		if mc.counter == "" {
			c[i] = b.walks
		} else {
			c[i] = snap[mc.counter]
		}
	}
	return c
}

// span is one timed call. Start and End are host time since the pass
// began; Parent indexes the enclosing span (-1 for a root); Cell is the
// grid cell (-1 for pass-level work); Delta is the model-counter change
// on the bound machine across the call.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Delta  counts `json:"delta"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder times the benchmark's calls into the simulator's layers from
// outside. Untraced passes time only what the end-to-end metrics need -
// set-up calls and Technique.Collect; a traced pass also records every
// call as a span with its counter deltas. One recorder serves one pass on
// one goroutine.
type recorder struct {
	traced bool
	now    func() time.Duration // host time since the pass began
	cell   int

	setup   time.Duration   // time in set-up spans
	collect []time.Duration // Technique.Collect latencies
	totals  counts          // model counts of every machine bound this pass

	spans      []span
	open       []int
	bind       *binding
	framesPeak int // most frames the bound machine held at a root span's end

	attempted, failed int
	firstErr          error
}

func newRecorder(traced bool) *recorder {
	t0 := time.Now()
	return &recorder{traced: traced, now: func() time.Duration { return time.Since(t0) }, cell: -1}
}

// call runs fn as the named layer call.
func (r *recorder) call(name string, fn func() error) error {
	if !r.traced {
		if name != spCollect && !isSetup(name) {
			return fn()
		}
		t0 := r.now()
		err := fn()
		r.account(name, r.now()-t0)
		return err
	}
	i := len(r.spans)
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	var before counts
	if r.bind != nil {
		before = r.bind.read()
	}
	r.open = append(r.open, i)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Cell: r.cell, Start: int64(r.now())})
	err := fn()
	end := r.now()
	r.open = r.open[:len(r.open)-1]
	s := &r.spans[i]
	s.End = int64(end)
	if r.bind != nil {
		s.Delta = r.bind.read().sub(before)
	}
	r.account(name, s.dur())
	if parent < 0 {
		r.sampleFrames()
	}
	return err
}

func (r *recorder) account(name string, d time.Duration) {
	if isSetup(name) {
		r.setup += d
	}
	if name == spCollect {
		r.collect = append(r.collect, d)
	}
}

// attach makes m the machine whose counters spans read, with the
// processes whose page tables count; its counts so far (inherited by a
// fork, or the warm-up of a snapshot source) are the baseline.
func (r *recorder) attach(m *machine.Machine, procs ...*guestos.Process) {
	r.detach()
	r.bind = &binding{phys: m.Phys, vcpu: m.Guest(0).Kernel.VCPU, procs: procs}
	r.bind.base = r.bind.read()
}

// watch adds a process (a restored image) to the bound machine.
func (r *recorder) watch(p *guestos.Process) { r.bind.procs = append(r.bind.procs, p) }

// detach folds the bound machine's counts into the pass totals and lets
// the machine go.
func (r *recorder) detach() {
	if r.bind == nil {
		return
	}
	r.totals.add(r.bind.read().sub(r.bind.base))
	r.bind = nil
}

func (r *recorder) sampleFrames() {
	if r.bind != nil {
		r.framesPeak = max(r.framesPeak, r.bind.phys.FrameCount())
	}
}

// check counts one attempted operation and whether it failed.
func (r *recorder) check(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	return err
}

// selfTimes returns each span name's total self time and the host time
// covered by root spans. Children run inside their parent on the same
// goroutine one after another, so the part of a parent they cover is the
// sum of their durations.
func selfTimes(spans []span) (self map[string]time.Duration, rooted time.Duration) {
	self = make(map[string]time.Duration, len(spanNames))
	for _, s := range spans {
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		} else {
			rooted += s.dur()
		}
	}
	return self, rooted
}
