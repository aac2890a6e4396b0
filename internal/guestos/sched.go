package guestos

import (
	"time"

	"repro/internal/trace"
)

// SchedNotifier receives context-switch events for one traced process. The
// OoH module registers one per tracked PID: SPML turns PML logging on/off
// with hypercalls, EPML with exit-free vmwrites (§IV-C, §IV-D).
type SchedNotifier interface {
	ScheduledIn(p *Process)
	ScheduledOut(p *Process)
}

// DefaultTimeSlice matches CFS-era preemption granularity closely enough
// for the paper's N (context switches during tracking) to be realistic.
const DefaultTimeSlice = 4 * time.Millisecond

// Scheduler is a round-robin preemptive scheduler driven by virtual time.
// The simulation is cooperative under the hood: every memory operation
// calls maybePreempt, and when the running process has exhausted its time
// slice the scheduler simulates a full context switch (out and back in),
// firing the notifier chain. That is exactly the window in which SPML and
// EPML must disable and re-enable dirty logging.
type Scheduler struct {
	k         *Kernel
	Slice     time.Duration
	procs     []*Process
	notifiers map[Pid][]SchedNotifier
	lastSlice int64 // clock ns at the start of the current slice
	switches  int64
	// OtherRunnable simulates competing runnable tasks: when false (a
	// dedicated CPU, the paper's setup) preemption still occurs at slice
	// boundaries (timer tick + kernel threads) but is brief.
	disabled bool
}

func newScheduler(k *Kernel) *Scheduler {
	return &Scheduler{
		k:         k,
		Slice:     DefaultTimeSlice,
		notifiers: make(map[Pid][]SchedNotifier),
	}
}

func (s *Scheduler) addProcess(p *Process) { s.procs = append(s.procs, p) }
func (s *Scheduler) removeProcess(p *Process) {
	for i, q := range s.procs {
		if q == p {
			s.procs = append(s.procs[:i], s.procs[i+1:]...)
			return
		}
	}
}

// Notify registers a context-switch notifier for pid.
func (s *Scheduler) Notify(pid Pid, n SchedNotifier) {
	s.notifiers[pid] = append(s.notifiers[pid], n)
}

// Unnotify removes a previously registered notifier for pid. Removing the
// last notifier for a pid deletes its map entry entirely: the snapshot
// quiescence check counts registered pids, and an empty leftover entry
// would make a fully torn-down guest look permanently non-quiescent.
func (s *Scheduler) Unnotify(pid Pid, n SchedNotifier) {
	ns := s.notifiers[pid]
	for i, x := range ns {
		if x == n {
			ns = append(ns[:i], ns[i+1:]...)
			if len(ns) == 0 {
				delete(s.notifiers, pid)
			} else {
				s.notifiers[pid] = ns
			}
			return
		}
	}
}

// Switches returns the number of context switches performed so far (the
// paper's N counts these during tracking).
func (s *Scheduler) Switches() int64 { return s.switches }

// ResetSwitches zeroes the context switch counter (between experiments).
func (s *Scheduler) ResetSwitches() { s.switches = 0 }

// SetDisabled turns preemption off (for microbenchmarks that need exact
// event counts).
func (s *Scheduler) SetDisabled(v bool) { s.disabled = v }

// maybePreempt checks the running process's time slice and, when expired,
// simulates a context switch away and back: two mode switches (2 x M1) and
// the notifier round-trip.
func (s *Scheduler) maybePreempt() {
	if s.disabled {
		return
	}
	now := s.k.Clock.Nanos()
	if now-s.lastSlice < int64(s.Slice) {
		return
	}
	s.lastSlice = now
	cur := s.k.current
	if cur == nil {
		return
	}
	s.ContextSwitch(cur)
}

// switchTo performs a real context switch from the current process to p:
// schedule-out notifiers for the outgoing process, then schedule-in for p.
func (s *Scheduler) switchTo(p *Process) {
	k := s.k
	old := k.current
	if old != nil {
		s.k.VCPU.Counters.Inc(CtrContextSwitches)
		s.switches++
		start := k.Clock.Nanos()
		for _, n := range s.notifiers[old.Pid] {
			n.ScheduledOut(old)
		}
		s.k.Clock.Advance(s.k.Model.ContextSwitch)
		k.VCPU.Event(trace.KindContextSwitch, start, k.Clock.Nanos()-start, 0, int64(old.Pid))
	}
	k.current = p
	k.VCPU.SetAddressSpace(p.PT)
	for _, n := range s.notifiers[p.Pid] {
		n.ScheduledIn(p)
	}
}

// ContextSwitch forces a schedule-out/schedule-in cycle for p immediately.
func (s *Scheduler) ContextSwitch(p *Process) {
	m := s.k.Model
	s.k.VCPU.Counters.Add(CtrContextSwitches, 2)
	s.switches += 2
	start := s.k.Clock.Nanos()
	for _, n := range s.notifiers[p.Pid] {
		n.ScheduledOut(p)
	}
	s.k.Clock.Advance(2 * m.ContextSwitch)
	for _, n := range s.notifiers[p.Pid] {
		n.ScheduledIn(p)
	}
	s.k.VCPU.Event(trace.KindContextSwitch, start, s.k.Clock.Nanos()-start, 0, int64(p.Pid))
}
