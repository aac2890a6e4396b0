// Package machine assembles the full simulated stack - hypervisor backend,
// VMs, guest kernels, OoH modules/libs - and hands out tracking techniques
// bound to guest processes. It is the composition root used by the
// experiments, the public facade and the tests.
//
// The hypervisor is reached through the hv interface, selected by
// Config.Backend (default: hv.DefaultBackend, which honours OOH_BACKEND).
// The guest kernel and the OoH modules still need the simulator core
// underneath - they wire vCPU fields and shared rings directly - so every
// backend machine composes must expose it via a Sim() accessor; both
// registered backends ("sim", "oracle") do.
package machine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/guestos"
	"repro/internal/hv"
	_ "repro/internal/hv/hvoracle" // register the "oracle" backend
	_ "repro/internal/hv/hvsim"    // register the "sim" backend
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/trace"
	"repro/internal/tracking"
)

// Config parameterizes a machine.
type Config struct {
	// Backend names the hv backend to boot on ("" = hv.DefaultBackend(),
	// i.e. the OOH_BACKEND environment variable or "sim").
	Backend string
	// Model is the cost model; nil selects costmodel.Default().
	Model *costmodel.Model
	// HostMemBytes bounds simulated DRAM (0 = unlimited).
	HostMemBytes uint64
	// VMs is the number of virtual machines to boot (default 1).
	VMs int
	// DisablePreemption turns the guests' schedulers off, for
	// microbenchmarks needing exact event counts.
	DisablePreemption bool
	// Tracer, when non-nil, is attached to every vCPU so all layers emit
	// trace records. A Tracer is single-goroutine (like sim.Clock): only
	// set it on machines driven by one goroutine. Parallel experiment
	// sweeps give each machine its own trace.Shard and merge afterwards.
	Tracer *trace.Tracer
	// Faults, when non-nil, is attached to every vCPU so all layers'
	// fault-injection points can fire. Like the Tracer it is
	// single-goroutine; nil means no injected faults.
	Faults *faults.Injector
	// Metrics, when non-nil, receives counters/histograms from every layer
	// via a per-vCPU metrics.Events bridge. Like the Tracer it is
	// single-goroutine; parallel sweeps give each machine its own registry
	// and fold them with Registry.Merge. Nil disables metrics at zero cost.
	Metrics *metrics.Registry
	// Profiler, when non-nil, receives virtual-time call-path spans from
	// every layer via a per-vCPU prof.Tap bound to that VM's clock. Like
	// the Tracer it is single-goroutine: only set it on machines driven by
	// one goroutine. Parallel sweeps give each machine its own Profiler
	// and fold them with Profiler.Merge. Nil disables profiling at zero
	// cost.
	Profiler *prof.Profiler
	// Monitor, when non-nil, is the online monitoring plane: it observes
	// every event the vCPUs report (cpu.VCPU.Event feeds it after the
	// metrics bridge) plus the checkpoint/migration round boundaries,
	// maintaining live dirty-rate estimators, alert rules and the
	// convergence predictor.
	// It needs a registry to publish gauges and evaluate rules against; if
	// Metrics is nil a private registry is created for it. Like the other
	// planes it is single-goroutine; parallel sweeps Fork one monitor per
	// cell and fold them with Monitor.Merge. Nil disables monitoring at
	// zero cost.
	Monitor *monitor.Monitor
}

// Machine is a booted host: one hypervisor, n VMs each running a guest
// kernel. Multi-VM machines are used by the Fig. 10/11 scalability
// experiments; each VM is driven by its own goroutine there, while all VMs
// share the host's physical memory.
type Machine struct {
	Phys   *mem.PhysMem
	Model  *costmodel.Model
	Hyp    hv.Hypervisor
	Guests []*Guest
}

// SimHyp returns the simulator hypervisor underneath the hv backend.
func (m *Machine) SimHyp() *hypervisor.Hypervisor {
	return m.Hyp.(interface{ Sim() *hypervisor.Hypervisor }).Sim()
}

// Guest bundles one VM with its guest kernel and lazily loaded OoH modules.
type Guest struct {
	VM     hv.VirtualMachine
	Kernel *guestos.Kernel

	spmlLib *core.Lib
	epmlLib *core.Lib
}

// SimVM returns the simulator VM underneath the hv wrapper, for the code
// that genuinely needs simulator-only surface: module loading, shared
// rings, EPT/VMCS poking in tests.
func (g *Guest) SimVM() *hypervisor.VM {
	return g.VM.(interface{ Sim() *hypervisor.VM }).Sim()
}

// New boots a machine.
func New(cfg Config) (*Machine, error) {
	n := cfg.VMs
	if n <= 0 {
		n = 1
	}
	h, err := hv.New(cfg.Backend, hv.Config{HostMemBytes: cfg.HostMemBytes, Model: cfg.Model})
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m := &Machine{
		Phys:  h.Phys(),
		Model: h.Model(),
		Hyp:   h,
	}
	reg := cfg.probeRegistry()
	for i := 0; i < n; i++ {
		vm, err := h.CreateVM()
		if err != nil {
			return nil, fmt.Errorf("machine: creating VM %d: %w", i, err)
		}
		g, err := newGuest(m, vm, cfg, reg, i)
		if err != nil {
			return nil, err
		}
		m.Guests = append(m.Guests, g)
	}
	return m, nil
}

// probeRegistry attaches cfg.Monitor to cfg's tracer and returns the
// registry every guest's metrics bridge feeds: cfg.Metrics, or a private
// registry when only the monitor needs one - it publishes gauges and
// evaluates rules against a registry even when the caller didn't ask for
// metrics themselves.
func (cfg Config) probeRegistry() *metrics.Registry {
	reg := cfg.Metrics
	if cfg.Monitor != nil {
		if reg == nil {
			reg = metrics.NewRegistry()
		}
		cfg.Monitor.Attach(cfg.Tracer, reg)
	}
	return reg
}

// newGuest wires the observability planes into a created VM's vCPU and
// boots its guest kernel. Shared between New (cold boot) and Fork.
func newGuest(m *Machine, vm hv.VirtualMachine, cfg Config, reg *metrics.Registry, i int) (*Guest, error) {
	sv, ok := vm.(interface{ Sim() *hypervisor.VM })
	if !ok {
		return nil, fmt.Errorf("machine: backend VM %T does not expose the simulator core", vm)
	}
	svm := sv.Sim()
	wireGuestProbes(svm, cfg, reg, i)
	k := guestos.NewKernel(svm.VCPU, m.Model)
	if cfg.DisablePreemption {
		k.Sched.SetDisabled(true)
	}
	return &Guest{VM: vm, Kernel: k}, nil
}

// wireGuestProbes points guest i's vCPU at cfg's observability planes.
func wireGuestProbes(svm *hypervisor.VM, cfg Config, reg *metrics.Registry, i int) {
	svm.VCPU.Tracer = cfg.Tracer
	svm.VCPU.Inj = cfg.Faults
	svm.VCPU.Met = metrics.NewEvents(reg)
	svm.VCPU.Prof = cfg.Profiler.Tap(svm.VCPU.Clock)
	svm.VCPU.Mon = cfg.Monitor
	if i == 0 {
		// Only the first guest feeds the sampler's default series;
		// duplicate registrations from later guests would shadow them.
		svm.VCPU.Met.WatchDefaults()
	}
}

// AttachProbes rewires every guest's observability planes to cfg's Tracer,
// Faults, Metrics, Profiler and Monitor, exactly as New would have. An
// experiment cell warms a machine with the planes detached and attaches
// its per-cell shard afterwards, so the warm-up phase is never observed -
// exactly what a Fork of a warm snapshot sees with the same planes in its
// Config. Only the probe fields change; clocks,
// kernels and memory are untouched.
func (m *Machine) AttachProbes(cfg Config) {
	reg := cfg.probeRegistry()
	for i, g := range m.Guests {
		wireGuestProbes(g.SimVM(), cfg, reg, i)
	}
}

// Guest returns the i-th guest (0-based).
func (m *Machine) Guest(i int) *Guest { return m.Guests[i] }

// SPML returns the guest's SPML OoH library, loading the module on first use.
func (g *Guest) SPML() *core.Lib {
	if g.spmlLib == nil {
		g.spmlLib = core.NewLib(core.NewModule(g.Kernel, g.SimVM(), core.ModeSPML))
	}
	return g.spmlLib
}

// EPML returns the guest's EPML OoH library, loading the module on first use.
func (g *Guest) EPML() *core.Lib {
	if g.epmlLib == nil {
		g.epmlLib = core.NewLib(core.NewModule(g.Kernel, g.SimVM(), core.ModeEPML))
	}
	return g.epmlLib
}

// NewTechnique constructs the given tracking technique bound to a process
// of this guest.
func (g *Guest) NewTechnique(kind costmodel.Technique, proc *guestos.Process) (tracking.Technique, error) {
	switch kind {
	case costmodel.Oracle:
		return tracking.NewOracle(proc), nil
	case costmodel.Proc:
		return tracking.NewProc(g.Kernel, proc.Pid), nil
	case costmodel.Ufd:
		return tracking.NewUfd(proc), nil
	case costmodel.SPML:
		return tracking.NewPML(g.SPML(), proc.Pid), nil
	case costmodel.EPML:
		return tracking.NewPML(g.EPML(), proc.Pid), nil
	}
	return nil, fmt.Errorf("machine: unknown technique %v", kind)
}

// NewResilient wraps the degradation ladder starting at preferred around
// this guest's techniques, injecting the vCPU's fault injector. The wrapper
// probes capabilities at Init, retries transient failures and repairs lossy
// collections (see tracking.Resilient).
func (g *Guest) NewResilient(preferred costmodel.Technique, proc *guestos.Process) *tracking.Resilient {
	factory := func(kind costmodel.Technique) (tracking.Technique, error) {
		return g.NewTechnique(kind, proc)
	}
	return tracking.NewResilient(proc, g.VM.VCPU().Injector(), factory, tracking.LadderFrom(preferred)...)
}

// AllTechniques lists the four real techniques in the paper's comparison
// order plus the oracle first.
func AllTechniques() []costmodel.Technique {
	return []costmodel.Technique{
		costmodel.Oracle, costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML,
	}
}

// RealTechniques lists the four techniques the paper evaluates.
func RealTechniques() []costmodel.Technique {
	return []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML}
}
