// Package hvoracle registers the "oracle" backend: a perfect dirty-bit
// hypervisor layered on the same simulator core as the "sim" backend. It
// observes EPT walks directly - every write that commits a dirty flag and
// every read that commits an accessed flag fires a host-side callback -
// and accumulates the touched GPAs in host maps, charging zero PML cost:
// no buffer entries, no PML-full vmexits, no drains, no VMCS arming.
//
// The result is the idealized lower bound the paper's techniques chase: a
// tracker with ARM-DBM-style "dirty bits for free" semantics and an
// instantaneous harvest. Runs under this backend answer "how much of a
// technique's overhead is PML mechanics vs. inherent cost of touching
// memory"; the conformance suite runs the tracking/migration tests under
// it to pin down that the *sets* techniques report are backend-invariant
// even when the *costs* differ.
//
// Exactness argument (mirrors the observer contract in internal/ept):
// clearing dirty/accessed flags bumps the EPT generation, which kills
// every cached translation, so after each Collect the first touch of each
// page must re-walk and re-fire the observer. No touched page is missed,
// and only genuinely touched pages are reported.
package hvoracle

import (
	"fmt"
	"slices"

	"repro/internal/costmodel"
	"repro/internal/hv"
	"repro/internal/hv/hvsim"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/trace"
)

func init() {
	hv.Register("oracle", New)
}

// New builds an oracle-backed hypervisor on top of the simulator core.
func New(cfg hv.Config) (hv.Hypervisor, error) {
	inner, err := hvsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Hyp{inner: inner.(*hvsim.Hyp)}, nil
}

// Hyp wraps the simulator backend, replacing the tracking capabilities of
// every VM it creates with oracle implementations.
type Hyp struct {
	inner *hvsim.Hyp
	vms   []hv.VirtualMachine
}

// Sim returns the underlying simulator hypervisor.
func (h *Hyp) Sim() *hypervisor.Hypervisor { return h.inner.Sim() }

func (h *Hyp) Name() string             { return "oracle" }
func (h *Hyp) Phys() *mem.PhysMem       { return h.inner.Phys() }
func (h *Hyp) Model() *costmodel.Model  { return h.inner.Model() }
func (h *Hyp) VMs() []hv.VirtualMachine { return append([]hv.VirtualMachine(nil), h.vms...) }

func (h *Hyp) CreateVM() (hv.VirtualMachine, error) {
	inner, err := h.inner.CreateVM()
	if err != nil {
		return nil, err
	}
	return h.wrap(inner.(*hvsim.VM)), nil
}

// NewVMFromSnapshot forks a captured VM into this hypervisor's (forked)
// physical memory. Oracle snapshots carry no observer state - capture
// refuses while logging is armed - so the fork starts with disarmed,
// freshly wired observers.
func (h *Hyp) NewVMFromSnapshot(snap hv.Snapshot) (hv.VirtualMachine, error) {
	inner, err := h.inner.NewVMFromSnapshot(snap)
	if err != nil {
		return nil, err
	}
	return h.wrap(inner.(*hvsim.VM)), nil
}

// wrap installs the lifetime EPT observers into a simulator VM and tracks
// the oracle view. The on/off gates make Start/Stop free of EPT surgery
// (flag clears aside).
func (h *Hyp) wrap(inner *hvsim.VM) *VM {
	vm := &VM{VM: inner}
	svm := vm.Sim()
	svm.EPT.WriteObserver = func(gpa mem.GPA) {
		if vm.dirtyOn {
			if _, seen := vm.dirty[gpa]; !seen {
				vm.dirty[gpa] = struct{}{}
				vm.observeLog(gpa)
			}
		}
		if vm.accessOn {
			vm.accessed[gpa] = struct{}{}
		}
	}
	svm.EPT.ReadObserver = func(gpa mem.GPA) {
		if vm.accessOn {
			vm.accessed[gpa] = struct{}{}
		}
	}
	h.vms = append(h.vms, vm)
	return vm
}

// VM is an oracle VM: the simulator VM for execution, clocks and memory,
// with DirtyLog/AccessLog overridden to harvest from the observer sets.
type VM struct {
	*hvsim.VM

	dirtyOn  bool
	accessOn bool
	dirty    map[mem.GPA]struct{}
	accessed map[mem.GPA]struct{}
}

// StartDirtyLogging arms the oracle: a fresh dirty set and cleared EPT
// dirty flags (the generation bump invalidates cached translations, so
// every page's next write re-walks and is observed). No VMCS PML arming -
// the oracle has no buffer to fill.
func (vm *VM) StartDirtyLogging() {
	vm.dirty = make(map[mem.GPA]struct{})
	vm.dirtyOn = true
	vm.Sim().EPT.ClearDirty()
}

// StopDirtyLogging disarms the oracle and drops its set.
func (vm *VM) StopDirtyLogging() {
	vm.dirtyOn = false
	vm.dirty = nil
}

// CollectDirty returns the pages written since the last collection in
// ascending order and re-arms: per-page dirty-flag clears (each bumps the
// EPT generation) guarantee the next write per page is observed again.
func (vm *VM) CollectDirty() ([]mem.GPA, error) {
	if !vm.dirtyOn {
		return nil, nil
	}
	out := make([]mem.GPA, 0, len(vm.dirty))
	for gpa := range vm.dirty {
		out = append(out, gpa)
	}
	slices.Sort(out)
	ept := vm.Sim().EPT
	for _, gpa := range out {
		ept.ClearDirtyPage(gpa)
	}
	vm.dirty = make(map[mem.GPA]struct{})
	vm.observeDrain()
	return out, nil
}

// observeLog mirrors the simulator's per-entry PML append on the
// observability planes: the same trace kind (pml_log), the same metrics
// bridge observation (which is how the monitor's dirty-rate estimators
// see oracle runs), at zero cost - the oracle charges no virtual time, so
// the record's cost is 0 and no clock advances. Without this an oracle
// run is observationally blind: cross-backend diffs would attribute the
// entire dirty-tracking plane to "sim only".
func (vm *VM) observeLog(gpa mem.GPA) {
	v := vm.Sim().VCPU
	v.Event(trace.KindPMLLog, v.Clock.Nanos(), 0, uint64(gpa), 0)
}

// observeDrain mirrors the simulator's PML-buffer drain on the
// observability planes: same trace kind (pml_drain), zero cost, and - like
// a sim drain that routes to the migration log rather than a guest ring -
// an Arg of zero ring copies. The oracle has no buffer, so kinds tied to
// buffer mechanics (pml_full, epml_full_irq, the occupancy gauge) stay
// absent by design; the cross-backend parity test carries that allowlist.
func (vm *VM) observeDrain() {
	v := vm.Sim().VCPU
	v.Event(trace.KindPMLDrain, v.Clock.Nanos(), 0, 0, 0)
}

// StartAccessLogging arms read+write observation with cleared A/D flags.
func (vm *VM) StartAccessLogging() {
	vm.accessed = make(map[mem.GPA]struct{})
	vm.accessOn = true
	ept := vm.Sim().EPT
	ept.ClearDirty()
	ept.ClearAccessed()
}

// StopAccessLogging disarms access observation.
func (vm *VM) StopAccessLogging() {
	vm.accessOn = false
	vm.accessed = nil
}

// CollectAccessed returns every page touched since StartAccessLogging in
// ascending order and re-arms by clearing both flag planes.
func (vm *VM) CollectAccessed() ([]mem.GPA, error) {
	if !vm.accessOn {
		return nil, nil
	}
	out := make([]mem.GPA, 0, len(vm.accessed))
	for gpa := range vm.accessed {
		out = append(out, gpa)
	}
	slices.Sort(out)
	ept := vm.Sim().EPT
	ept.ClearDirty()
	ept.ClearAccessed()
	vm.accessed = make(map[mem.GPA]struct{})
	return out, nil
}

// CaptureSnapshot refuses while the oracle is armed: the observer sets are
// host-side harvest state, not VM state, and a fork must not inherit a
// half-collected interval.
func (vm *VM) CaptureSnapshot() (hv.Snapshot, error) {
	if vm.dirtyOn || vm.accessOn {
		return nil, fmt.Errorf("%w: oracle logging armed", hypervisor.ErrNotQuiescent)
	}
	return vm.VM.CaptureSnapshot()
}
