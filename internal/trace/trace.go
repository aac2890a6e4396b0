// Package trace is the simulation-wide event-tracing subsystem: a bounded
// in-memory ring of typed trace records with pluggable sinks and per-kind
// enable masks.
//
// Every layer that charges virtual time (vCPU, hypervisor, guest kernel,
// OoH module/lib, tracking techniques, CRIU, Boehm GC) can attribute its
// costs to individual events instead of only aggregate counters - the
// per-event timeline view that makes the paper's cost model (Table V,
// Formulas 1-4) debuggable.
//
// Design constraints:
//
//   - Zero allocation on the hot path: Emit copies the fixed-size Record
//     into a preallocated ring and only hands full batches to the sink.
//   - Disabled tracing costs one branch: every instrumentation site reports
//     through cpu.VCPU.Event, which guards Emit with Enabled(kind); Enabled
//     is nil-receiver safe, so an untraced simulation pays a nil check and
//     nothing else.
//   - Deterministic: records carry only virtual timestamps; attaching or
//     detaching a tracer never advances the clock, so traced and untraced
//     runs produce bit-identical virtual times.
//
// Like sim.Clock, a Tracer is not safe for concurrent use: one tracer
// belongs to one simulation goroutine. Experiment drivers that fan out
// give each grid cell its own Shard and fold them into the destination
// tracer with Merge after the barrier - see shard.go.
//
// Record kinds are hierarchical, not a partition: envelope kinds (e.g.
// KindHypercall, KindGuestPF, KindIRQ) measure a whole service span and
// include the cost of the narrower kinds emitted inside it (KindPMLDrain
// inside a hypercall, KindDemandFault inside a #PF). Summaries are
// per-kind; do not add rows across nesting levels.
package trace

import (
	"fmt"
	"strings"
)

// Kind identifies the event type of a Record. Kinds must stay below 64 so
// the enable mask fits one word.
type Kind uint8

// Event kinds, grouped by the layer that emits them.
const (
	// --- internal/cpu: vmexits and walk-circuit events -----------------
	KindVMExit       Kind = iota // other vmexit (vmread/vmwrite trap); Arg = reason
	KindHypercall                // hypercall service span; Arg = hypercall nr
	KindPMLFull                  // PML-buffer-full vmexit (drain included)
	KindEPTViolation             // EPT violation exit; Addr = faulting GPA
	KindGuestPF                  // guest #PF service span; Addr = GVA, Arg = 1 for write
	KindPMLLog                   // CPU appends one hypervisor-level PML entry; Addr = GPA
	KindEPMLLog                  // CPU appends one guest-level PML entry; Addr = GVA
	KindEPMLFullIRQ              // guest-buffer-full posted self-IPI span
	KindSPPViolation             // sub-page permission violation span; Addr = GVA

	// --- internal/guestos: kernel events -------------------------------
	KindContextSwitch  // context switch; Arg = outgoing pid
	KindIRQ            // posted interrupt delivery span; Arg = vector
	KindDemandFault    // ordinary demand-paging fault; Addr = GVA
	KindSoftDirtyFault // soft-dirty write-protect fault (M5); Addr = GVA
	KindUfdFault       // userfaultfd userspace fault span (M6); Addr = GVA
	KindClearRefs      // clear_refs walk (M15); Arg = pages walked

	// --- internal/core + internal/hypervisor: ring plumbing ------------
	KindRingCopy   // Fetch: draining ring entries (M18); Arg = entries
	KindPTWalk     // Fetch: pagemap walk building the reverse index (M16)
	KindReverseMap // Fetch: GPA->GVA lookups (M17); Arg = entries resolved
	KindRingDrain  // EPML guest-buffer drain into the ring; Arg = entries
	KindPMLDrain   // hypervisor PML-buffer drain; Arg = entries to ring

	// --- internal/tracking: technique phases ----------------------------
	KindTrackInit    // technique Init phase; Arg = costmodel.Technique
	KindTrackCollect // technique Collect phase; Arg = pages reported
	KindTrackClose   // technique Close phase

	// --- internal/criu + internal/boehmgc: exploitation phases ----------
	KindCRIUMD  // CRIU memory dump (dirty address collection)
	KindCRIUMW  // CRIU memory write (page dump to image); Arg = pages
	KindGCMark  // GC mark phase; Arg = objects scanned
	KindGCSweep // GC sweep phase; Arg = objects freed
	KindGCCycle // whole GC cycle; Arg = cycle number

	// --- internal/faults + tracking.Resilient: faults and recovery ------
	KindFault        // injected fault fired; Arg = faults.Point, Addr = site detail
	KindTrackRetry   // one transient-failure backoff wait; Arg = attempt number
	KindTrackDegrade // ladder descent; Arg = from<<8 | to (costmodel.Technique)
	KindTrackRescan  // soft-dirty rescan of a lossy epoch; Arg = pages recovered

	// --- internal/migration: transport recovery and transactions --------
	KindMigRetry  // one page-send retry backoff wait; Arg = attempt, Addr = GPA
	KindMigNack   // destination checksum NACK -> resend; Addr = GPA
	KindMigAbort  // migration aborted (partial image discarded); Arg = round
	KindMigResume // migration resumed from a journal; Arg = first live round

	// --- internal/monitor: online monitoring plane ----------------------
	KindMonAlert   // alert rule transition (firing/resolved); Arg = rule value
	KindMonPredict // convergence predictor flag; Arg = projected dirty pages

	numKinds // sentinel; keep last
)

var kindNames = [numKinds]string{
	KindVMExit:         "vmexit",
	KindHypercall:      "hypercall",
	KindPMLFull:        "pml_full",
	KindEPTViolation:   "ept_violation",
	KindGuestPF:        "guest_pf",
	KindPMLLog:         "pml_log",
	KindEPMLLog:        "epml_log",
	KindEPMLFullIRQ:    "epml_full_irq",
	KindSPPViolation:   "spp_violation",
	KindContextSwitch:  "context_switch",
	KindIRQ:            "irq",
	KindDemandFault:    "demand_fault",
	KindSoftDirtyFault: "softdirty_fault",
	KindUfdFault:       "ufd_fault",
	KindClearRefs:      "clear_refs",
	KindRingCopy:       "ring_copy",
	KindPTWalk:         "pt_walk",
	KindReverseMap:     "reverse_map",
	KindRingDrain:      "ring_drain",
	KindPMLDrain:       "pml_drain",
	KindTrackInit:      "track_init",
	KindTrackCollect:   "track_collect",
	KindTrackClose:     "track_close",
	KindCRIUMD:         "criu_md",
	KindCRIUMW:         "criu_mw",
	KindGCMark:         "gc_mark",
	KindGCSweep:        "gc_sweep",
	KindGCCycle:        "gc_cycle",
	KindFault:          "fault",
	KindTrackRetry:     "track_retry",
	KindTrackDegrade:   "track_degrade",
	KindTrackRescan:    "track_rescan",
	KindMigRetry:       "mig_retry",
	KindMigNack:        "mig_nack",
	KindMigAbort:       "mig_abort",
	KindMigResume:      "mig_resume",
	KindMonAlert:       "mon_alert",
	KindMonPredict:     "mon_predict",
}

// NumKinds returns how many kinds are defined.
func NumKinds() int { return int(numKinds) }

// String returns the kind's stable wire name (used in JSONL output).
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a wire name back to its Kind.
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// ParseKinds converts a comma-separated list of kind names (the CLI
// -trace-kinds syntax) into an enable mask. An empty string means all
// kinds; the token "all" does the same explicitly and composes with named
// kinds ("all,hypercall" is just every kind). Blank elements (trailing or
// doubled commas) are skipped; duplicate names are harmless.
func ParseKinds(csv string) (uint64, error) {
	if strings.TrimSpace(csv) == "" {
		return AllKinds, nil
	}
	var mask uint64
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "all" {
			mask |= AllKinds
			continue
		}
		k, ok := KindByName(name)
		if !ok {
			return 0, fmt.Errorf("trace: unknown kind %q (have all, %s)", name, strings.Join(kindNames[:], ", "))
		}
		mask |= 1 << uint(k)
	}
	return mask, nil
}

// Record is one trace event. The struct is fixed-size and passed by value
// so emitting never allocates.
type Record struct {
	TS   int64  // virtual nanoseconds at the event's start
	Cost int64  // virtual nanoseconds charged to this event
	Addr uint64 // guest address (GVA or GPA depending on Kind), 0 if n/a
	Arg  int64  // kind-specific detail (exit reason, entries, pid, ...)
	VM   int32  // VM/vCPU id the event occurred on
	Kind Kind
}

// AllKinds is the enable mask with every kind on.
const AllKinds uint64 = 1<<uint(numKinds) - 1

// DefaultRingRecords sizes the tracer's in-memory ring: records buffered
// between sink flushes.
const DefaultRingRecords = 4096

// Tracer buffers records in a bounded ring and flushes full batches to its
// sink. The zero Tracer is not usable; use New. A nil *Tracer is a valid
// disabled tracer: Enabled reports false and Emit is never reached.
type Tracer struct {
	mask    uint64
	buf     []Record
	sink    Sink
	err     error // first sink error, sticky
	emitted uint64
	dropped uint64
	closed  bool
}

// New returns a tracer writing to sink with all kinds enabled.
// ringRecords sizes the in-memory ring (<=0 selects DefaultRingRecords).
func New(sink Sink, ringRecords int) *Tracer {
	if ringRecords <= 0 {
		ringRecords = DefaultRingRecords
	}
	if sink == nil {
		sink = Discard{}
	}
	return &Tracer{mask: AllKinds, buf: make([]Record, 0, ringRecords), sink: sink}
}

// SetMask installs an explicit enable mask (bit i enables Kind(i)).
func (t *Tracer) SetMask(mask uint64) { t.mask = mask & AllKinds }

// Mask returns the current enable mask.
func (t *Tracer) Mask() uint64 { return t.mask }

// Enable turns the given kinds on.
func (t *Tracer) Enable(kinds ...Kind) {
	for _, k := range kinds {
		t.mask |= 1 << uint(k)
	}
}

// Disable turns the given kinds off.
func (t *Tracer) Disable(kinds ...Kind) {
	for _, k := range kinds {
		t.mask &^= 1 << uint(k)
	}
}

// Enabled reports whether kind k is traced. It is nil-receiver safe, so
// callers (cpu.VCPU.Event) need no separate nil check:
//
//	if tr.Enabled(k) { tr.Emit(...) }
func (t *Tracer) Enabled(k Kind) bool {
	return t != nil && t.mask&(1<<uint(k)) != 0
}

// Emit appends one record, flushing the ring to the sink when full. Callers
// are expected to have checked Enabled; Emit itself does not filter.
//
// Emitting after Close is a safe no-op counted as a drop: the sink is
// already settled, so the record can never reach it, and silently buffering
// it would make Emitted() overcount what the sink saw without any
// records_dropped signal.
func (t *Tracer) Emit(r Record) {
	if t.closed {
		t.dropped++
		return
	}
	t.buf = append(t.buf, r)
	t.emitted++
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

// Emitted returns how many records have been emitted since New.
func (t *Tracer) Emitted() uint64 { return t.emitted }

// Dropped returns how many emitted records never reached the sink because
// a WriteBatch call failed (the whole failed batch is discarded). A
// nonzero value means summaries and cross-checks built from the sink's
// output undercount; CLIs surface it in -summary output and as the
// trace/records_dropped metric. Nil-receiver safe.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

func (t *Tracer) flush() {
	if len(t.buf) == 0 {
		return
	}
	if err := t.sink.WriteBatch(t.buf); err != nil {
		t.dropped += uint64(len(t.buf))
		if t.err == nil {
			t.err = err
		}
	}
	t.buf = t.buf[:0]
}

// Flush drains the ring into the sink and returns the first sink error
// observed so far.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.flush()
	return t.err
}

// Close flushes and closes the sink when it implements io.Closer. Close is
// idempotent: a second call returns the sticky error without touching the
// sink again, so callers may both defer Close (to survive error paths) and
// call it explicitly on the happy path before reading the sink's output.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if t.closed {
		return t.err
	}
	t.closed = true
	err := t.Flush()
	if c, ok := t.sink.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil && t.err == nil {
		t.err = err
	}
	return err
}
