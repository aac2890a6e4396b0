// Package migration implements pre-copy live migration of a whole VM,
// driven by the hypervisor-level dirty log - the feature's original
// purpose (§II-B: "the content of the larger buffer is used to know which
// pages should be resent during the VM live migration pre-copy phase").
//
// The pipeline is transactional: an explicit round state machine writes a
// per-round Journal, page sends survive transient transport faults with
// bounded clock-charged retries, wire corruption is caught by a per-page
// checksum at the destination (NACK and resend), a downtime-SLO guard
// refuses stop-and-copy when the pending set cannot be transferred within
// Options.DowntimeBudget, aborts discard the partial destination image and
// leave the source guest runnable, and Resume re-attaches after a
// transport crash between rounds and sends only the delta.
//
// It exists in this reproduction for two reasons: it exercises the
// hypervisor's own use of PML end to end, and it demonstrates (with tests)
// that a guest's SPML session keeps working while its VM is being
// live-migrated - the coordination §IV-C was designed for.
//
// The migration drives any hv backend: it programs against
// hv.VirtualMachine and harvests through the hv.DirtyLog capability
// (discovered by type assertion, like a KVM_CAP probe). The conformance
// suite runs it under every registered backend.
package migration

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Options tunes the pre-copy loop.
type Options struct {
	// BandwidthPagesPerMS is the transfer rate toward the destination in
	// 4 KiB pages per virtual millisecond (default 256 ~= 1 GB/s).
	BandwidthPagesPerMS int
	// MaxRounds bounds the dirty-only rounds before stop-and-copy.
	MaxRounds int
	// DowntimeTargetPages: switch to stop-and-copy once a round's dirty
	// set is at most this many pages.
	DowntimeTargetPages int
	// DowntimeBudget, when non-zero, is the downtime SLO: stop-and-copy is
	// refused while the pending set's estimated transfer time exceeds it
	// (pre-copy continues instead), and once MaxRounds are exhausted the
	// migration aborts with ErrSLOAbort rather than blow the budget.
	DowntimeBudget time.Duration
	// MaxSendRetries bounds, per page, the transient send failures retried
	// and the checksum NACKs resent before the migration aborts
	// (default 4).
	MaxSendRetries int
	// SendBackoff is the virtual-time wait before the first send retry; it
	// doubles per attempt (default 30us).
	SendBackoff time.Duration
	// DestStallTime is the extra virtual time one injected destination
	// stall charges (default 150us).
	DestStallTime time.Duration
}

func (o Options) withDefaults() Options {
	if o.BandwidthPagesPerMS <= 0 {
		o.BandwidthPagesPerMS = 256
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 8
	}
	if o.DowntimeTargetPages <= 0 {
		o.DowntimeTargetPages = 32
	}
	if o.MaxSendRetries <= 0 {
		o.MaxSendRetries = 4
	}
	if o.SendBackoff <= 0 {
		o.SendBackoff = 30 * time.Microsecond
	}
	if o.DestStallTime <= 0 {
		o.DestStallTime = 150 * time.Microsecond
	}
	return o
}

// Stats reports one migration (accumulated across resumes).
type Stats struct {
	Rounds        int
	PagesSent     int // total page transfers (pre-copy amplification)
	UniquePages   int
	TotalTime     time.Duration
	Downtime      time.Duration // the stop-and-copy window
	Converged     bool          // reached the downtime target before MaxRounds
	PerRoundPages []int
	// Transport recovery, accumulated across retries and resumes.
	Retries int  // transient send failures retried (clock-charged backoff)
	Resends int  // checksum NACKs answered with a resend
	Stalls  int  // destination stalls absorbed (extra charged time)
	Resumes int  // journal re-attachments after a round crash
	Aborted bool // the partial destination image was discarded
}

// Typed failures of the transactional pipeline.
var (
	// ErrNoMemory reports a migration attempt on a VM with no mapped memory.
	ErrNoMemory = errors.New("migration: VM has no mapped guest memory")
	// ErrNoDirtyLog reports a VM whose backend does not expose the
	// hv.DirtyLog capability pre-copy depends on.
	ErrNoDirtyLog = errors.New("migration: backend VM exposes no dirty log")
	// ErrSLOAbort reports a migration that could not reach a pending set
	// transferable within Options.DowntimeBudget: rather than violate the
	// SLO, the migration aborted and the source keeps running.
	ErrSLOAbort = errors.New("migration: downtime SLO unattainable")
	// ErrRoundCrash reports a transport crash between pre-copy rounds; the
	// wrapping CrashError carries the Journal a Resume needs.
	ErrRoundCrash = errors.New("migration: transport crashed between rounds")
	// ErrSendFailed reports a page whose send failed past MaxSendRetries
	// (transient failures and checksum NACKs both count).
	ErrSendFailed = errors.New("migration: page send failed after retries")
)

// Migration drives one VM's pre-copy migration through the round state
// machine. Use New+Run (or the Migrate convenience wrapper); after a
// round crash, Resume continues from the journal.
type Migration struct {
	vm      hv.VirtualMachine
	log     hv.DirtyLog // nil when the backend lacks the capability
	cpu     hv.VirtualCPU
	j       *Journal
	perPage time.Duration
}

// New prepares a migration of vm (nothing is armed until Run).
func New(vm hv.VirtualMachine, opts Options) *Migration {
	opts = opts.withDefaults()
	m := &Migration{
		vm:      vm,
		cpu:     vm.VCPU(),
		j:       &Journal{Phase: PhaseInit, NextRound: 1, Opts: opts, dest: newDest()},
		perPage: time.Millisecond / time.Duration(opts.BandwidthPagesPerMS),
	}
	m.log, _ = vm.(hv.DirtyLog)
	return m
}

// Journal returns the migration's transaction log. After a round crash it
// is what Resume re-attaches to; after completion or abort it records the
// terminal phase.
func (m *Migration) Journal() *Journal { return m.j }

// Migrate pre-copies vm's guest-physical memory into a destination page
// store while runBetween keeps the guest running between rounds; the final
// round is a stop-and-copy (runBetween is not called after it). The
// returned image maps GPA page bases to page contents at the moment of
// completion. On a transport round-crash the error wraps ErrRoundCrash and
// a CrashError carrying the journal for Resume.
func Migrate(vm hv.VirtualMachine, opts Options, runBetween func(round int) error) (map[mem.GPA][]byte, Stats, error) {
	return New(vm, opts).Run(runBetween)
}

// Run executes the migration from the beginning: full copy, pre-copy
// rounds, stop-and-copy.
func (m *Migration) Run(runBetween func(round int) error) (map[mem.GPA][]byte, Stats, error) {
	vm, j := m.vm, m.j
	if m.log == nil {
		return nil, j.Stats, ErrNoDirtyLog
	}
	total := sim.StartWatch(vm.Clock())
	tap := m.cpu.Profiler()
	migSp := tap.Begin(prof.SubMigration, "migrate")
	defer migSp.End()

	// Arm hypervisor-level dirty logging before the first full copy so
	// writes racing the copy are caught by the next round. It stays armed
	// across a round crash (the outage's writes are the resume delta) and
	// is disarmed only on completion or abort.
	m.log.StartDirtyLogging()

	// Round 0: full copy of every mapped guest frame (sorted by contract).
	all := vm.MappedPages()
	if len(all) == 0 {
		m.abort(0)
		j.Stats.TotalTime += total.Elapsed()
		return nil, j.Stats, ErrNoMemory
	}
	j.Phase = PhaseFullCopy
	r0Sp := tap.Begin(prof.SubMigration, prof.RoundOp(0))
	err := m.sendRound(all)
	r0Sp.End()
	if err != nil {
		m.abort(0)
		j.Stats.TotalTime += total.Elapsed()
		return nil, j.Stats, err
	}
	j.NextRound = 1
	return m.converge(total, runBetween)
}

// Resume re-attaches to a migration whose transport crashed between
// pre-copy rounds. Dirty logging stayed armed across the outage, so only
// the journaled pending work plus the pages dirtied since the crash are
// sent - not the full memory again.
func Resume(vm hv.VirtualMachine, j *Journal, runBetween func(round int) error) (map[mem.GPA][]byte, Stats, error) {
	if j == nil {
		return nil, Stats{}, errors.New("migration: nil journal")
	}
	if j.dest == nil || j.Phase != PhasePreCopy {
		return nil, j.Stats, fmt.Errorf("migration: journal not resumable (phase %v)", j.Phase)
	}
	m := &Migration{vm: vm, cpu: vm.VCPU(), j: j,
		perPage: time.Millisecond / time.Duration(j.Opts.BandwidthPagesPerMS)}
	m.log, _ = vm.(hv.DirtyLog)
	if m.log == nil {
		return nil, j.Stats, ErrNoDirtyLog
	}
	total := sim.StartWatch(vm.Clock())
	tap := m.cpu.Profiler()
	migSp := tap.Begin(prof.SubMigration, "migrate")
	defer migSp.End()

	j.Stats.Resumes++
	v := m.cpu
	v.Event(trace.KindMigResume, vm.Clock().Nanos(), 0, 0, int64(j.NextRound))
	v.Metrics().Count(metrics.SubMigration, "resumes_total", "", 1)
	return m.converge(total, runBetween)
}

// Abort abandons a crashed (or still-journaled) migration instead of
// resuming it: dirty logging is stopped, the partial destination image is
// discarded, and the source guest - never paused - remains authoritative.
func Abort(vm hv.VirtualMachine, j *Journal) {
	if j == nil || j.Phase == PhaseAborted || j.Phase == PhaseCompleted {
		return
	}
	m := &Migration{vm: vm, cpu: vm.VCPU(), j: j}
	m.log, _ = vm.(hv.DirtyLog)
	m.abort(j.NextRound)
}

// converge is the shared tail of Run and Resume: pre-copy rounds under the
// SLO guard, then stop-and-copy.
func (m *Migration) converge(total sim.Stopwatch, runBetween func(round int) error) (map[mem.GPA][]byte, Stats, error) {
	vm, j, v := m.vm, m.j, m.cpu
	opts := j.Opts
	tap := v.Profiler()
	j.Phase = PhasePreCopy

	fail := func(round int, err error) (map[mem.GPA][]byte, Stats, error) {
		m.abort(round)
		j.Stats.TotalTime += total.Elapsed()
		return nil, j.Stats, err
	}

	// Dirty-only rounds. On convergence the freshly collected (small)
	// dirty set is carried into the stop-and-copy transfer - dropping it
	// would ship stale pages. lastDirty is the standard pre-copy downtime
	// estimator: the most recently observed dirty-set size.
	lastDirty := -1
	for round := j.NextRound; ; round++ {
		if round > opts.MaxRounds {
			if opts.DowntimeBudget > 0 && lastDirty >= 0 &&
				m.estimatedDowntime(lastDirty) > opts.DowntimeBudget {
				return fail(round, fmt.Errorf(
					"migration: pending ~%d pages need %v, budget %v: %w",
					lastDirty, m.estimatedDowntime(lastDirty), opts.DowntimeBudget, ErrSLOAbort))
			}
			break // budget satisfiable (or no SLO): pause and finish
		}
		if runBetween != nil {
			if err := runBetween(round); err != nil {
				return fail(round, fmt.Errorf("migration: guest (round %d): %w", round, err))
			}
		}
		// The transport session can die between rounds. The journal stays
		// valid, dirty logging stays armed, and the caller decides between
		// Resume (send the delta) and Abort.
		if v.Injector().Fire(faults.RoundCrash) {
			v.FaultRecord(faults.RoundCrash, 0)
			j.NextRound = round
			j.Stats.TotalTime += total.Elapsed()
			return nil, j.Stats, &CrashError{Journal: j, Round: round}
		}
		rSp := tap.Begin(prof.SubMigration, prof.RoundOp(round))
		dirty, err := m.collectDirty()
		if err != nil {
			rSp.End()
			return fail(round, err)
		}
		// Feed the round boundary to the online monitor: dirty-set size,
		// convergence target and SLO terms. Its predictor extrapolates the
		// series and can flag non-convergence rounds before the guard above
		// would trip ErrSLOAbort.
		v.Monitor().Round(int32(v.ID()), monitor.SubMigration, round,
			len(dirty), opts.DowntimeTargetPages, opts.MaxRounds,
			int64(m.estimatedDowntime(len(dirty))), int64(opts.DowntimeBudget),
			vm.Clock().Nanos())
		if len(dirty) <= opts.DowntimeTargetPages &&
			(opts.DowntimeBudget <= 0 || m.estimatedDowntime(len(dirty)) <= opts.DowntimeBudget) {
			j.Stats.Converged = true
			j.pending = dirty
			rSp.End()
			j.NextRound = round + 1
			break
		}
		err = m.sendRound(dirty)
		rSp.End()
		if err != nil {
			return fail(round, err)
		}
		lastDirty = len(dirty)
		j.NextRound = round + 1
	}

	// Stop-and-copy: the guest is paused (no runBetween), transfer the
	// pending set plus anything dirtied since it was collected - dedup'd,
	// so a page in both sets is shipped (and charged) once. The transfer
	// time is the migration downtime.
	j.Phase = PhaseStopAndCopy
	down := sim.StartWatch(vm.Clock())
	sacSp := tap.Begin(prof.SubMigration, "stop_and_copy")
	last, err := m.collectDirty()
	if err != nil {
		sacSp.End()
		return fail(j.NextRound, err)
	}
	err = m.sendRound(dedup(j.pending, last))
	sacSp.End()
	if err != nil {
		return fail(j.NextRound, err)
	}
	j.Stats.Downtime += down.Elapsed()
	j.Stats.TotalTime += total.Elapsed()
	j.Stats.UniquePages = len(j.dest.image)
	j.Phase = PhaseCompleted
	j.pending = nil
	m.log.StopDirtyLogging()
	return j.dest.image, j.Stats, nil
}

// abort is the internal clean-abort transition: dirty logging stopped, the
// partial destination image discarded, the terminal phase journaled. The
// source guest was never paused, so it simply keeps running.
func (m *Migration) abort(round int) {
	j := m.j
	j.Phase = PhaseAborted
	j.Stats.Aborted = true
	j.dest = nil
	j.pending = nil
	if m.log != nil {
		m.log.StopDirtyLogging()
	}
	v := m.cpu
	v.Event(trace.KindMigAbort, m.vm.Clock().Nanos(), 0, 0, int64(round))
	v.Metrics().Count(metrics.SubMigration, "aborts_total", "", 1)
}

// estimatedDowntime is the stop-and-copy estimate for n pending pages.
func (m *Migration) estimatedDowntime(n int) time.Duration {
	return time.Duration(n) * m.perPage
}

// collectDirty drains one pre-copy round's dirty log under a span. The
// result arrives sorted from CollectDirty (the send order decides which
// page each per-point fault draw lands on, so ordering is what keeps
// faulted runs and their traces deterministic).
func (m *Migration) collectDirty() ([]mem.GPA, error) {
	sp := m.cpu.Profiler().Begin(prof.SubMigration, "collect")
	defer sp.End()
	return m.log.CollectDirty()
}

// dedup unions two page sets in first-seen order, page-floored: the
// stop-and-copy transfer must ship (and charge) each frame exactly once.
func dedup(a, b []mem.GPA) []mem.GPA {
	out := make([]mem.GPA, 0, len(a)+len(b))
	seen := make(map[mem.GPA]struct{}, len(a)+len(b))
	for _, set := range [2][]mem.GPA{a, b} {
		for _, gpa := range set {
			gpa = gpa.PageFloor()
			if _, dup := seen[gpa]; dup {
				continue
			}
			seen[gpa] = struct{}{}
			out = append(out, gpa)
		}
	}
	return out
}

// sendRound transfers one round's frames into the destination image,
// charging transfer time per attempt.
func (m *Migration) sendRound(pages []mem.GPA) error {
	sp := m.cpu.Profiler().Begin(prof.SubMigration, "send")
	defer sp.End()
	for _, gpa := range pages {
		if err := m.sendPage(gpa.PageFloor()); err != nil {
			return err
		}
	}
	j := m.j
	j.Stats.Rounds++
	j.Stats.PerRoundPages = append(j.Stats.PerRoundPages, len(pages))
	return nil
}

// sendPage transfers one frame: bounded clock-charged retry on transient
// send failures, checksum verification at the destination with NACK and
// resend on wire corruption, and extra charged time on destination stalls.
func (m *Migration) sendPage(gpa mem.GPA) error {
	vm, v := m.vm, m.cpu
	opts := m.j.Opts
	buf := make([]byte, mem.PageSize)
	if err := v.KernelReadGPA(gpa, buf); err != nil {
		return fmt.Errorf("migration: reading %v: %w", gpa, err)
	}
	backoff := opts.SendBackoff
	for attempt := 1; ; attempt++ {
		// The send can fail before the page reaches the wire (transient
		// transport failure): retry after a charged backoff.
		if v.Injector().Fire(faults.SendFail) {
			v.FaultRecord(faults.SendFail, uint64(gpa))
			if attempt > opts.MaxSendRetries {
				return fmt.Errorf("migration: sending %v after %d attempts: %w",
					gpa, attempt, ErrSendFailed)
			}
			m.j.Stats.Retries++
			v.Event(trace.KindMigRetry, vm.Clock().Nanos(), int64(backoff), uint64(gpa), int64(attempt))
			v.Metrics().Count(metrics.SubMigration, "retries_total", "", 1)
			vm.Clock().Advance(backoff)
			backoff *= 2
			continue
		}
		// The page is on the wire: charge the transfer.
		vm.Clock().Advance(m.perPage)
		payload, sum := m.transmit(gpa, buf)
		if v.Injector().Fire(faults.DestStall) {
			v.FaultRecord(faults.DestStall, uint64(gpa))
			m.j.Stats.Stalls++
			vm.Clock().Advance(opts.DestStallTime)
		}
		if !m.j.dest.receive(gpa, payload, sum) {
			// Checksum mismatch at the destination: NACK, resend. Each
			// resend is a fresh wire transfer (charged above on the next
			// attempt) and counts against the per-page attempt bound.
			if attempt > opts.MaxSendRetries {
				return fmt.Errorf("migration: %v corrupted on %d consecutive transfers: %w",
					gpa, attempt, ErrSendFailed)
			}
			m.j.Stats.Resends++
			v.Event(trace.KindMigNack, vm.Clock().Nanos(), 0, uint64(gpa), int64(attempt))
			v.Metrics().Count(metrics.SubMigration, "resends_total", "", 1)
			continue
		}
		m.j.Stats.PagesSent++
		return nil
	}
}

// transmit models the wire: the page is copied for flight and checksummed
// on the sender side; an injected WireCorrupt flips one payload byte after
// the checksum was taken - exactly the damage the destination's
// verification catches.
func (m *Migration) transmit(gpa mem.GPA, buf []byte) (payload []byte, sum uint64) {
	payload = make([]byte, len(buf))
	copy(payload, buf)
	sum = checksum(payload)
	if v := m.cpu; v.Injector().Fire(faults.WireCorrupt) {
		v.FaultRecord(faults.WireCorrupt, uint64(gpa))
		payload[sum%uint64(len(payload))] ^= 0xFF
	}
	return payload, sum
}
