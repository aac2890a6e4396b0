package guestos

import (
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/pgtable"
	"repro/internal/prof"
	"repro/internal/trace"
)

// PagemapEntry is one decoded entry of /proc/PID/pagemap: the present bit,
// the guest frame, and bit 55 - the soft-dirty flag the /proc tracking
// technique consumes (§III-B).
type PagemapEntry struct {
	GVA       mem.GVA
	GPA       mem.GPA
	Present   bool
	SoftDirty bool
}

// ClearRefs implements `echo 4 > /proc/PID/clear_refs`: it walks the whole
// address space clearing every soft-dirty bit and write-protecting each
// writable page so the next write faults into the soft-dirty handler, then
// flushes the TLB. The cost is the paper's M15 curve, charged per page so
// that sparse address spaces pay proportionally.
func (k *Kernel) ClearRefs(pid Pid) error {
	p, ok := k.procs[pid]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchProcess, pid)
	}
	sp := k.VCPU.Prof.Begin(prof.SubGuestOS, "clear_refs")
	defer sp.End()
	k.VCPU.Counters.Inc(CtrClearRefs)
	perPage := k.Model.ClearRefs.PerPage(p.curveSize())
	pages := 0
	p.PT.Range(func(gva mem.GVA, pte pgtable.PTE) bool {
		pages++
		// Clear soft-dirty and drop write permission; keep ufd's own
		// write protection and flags intact.
		err := p.PT.Update(gva, func(e pgtable.PTE) pgtable.PTE {
			return e &^ (pgtable.FlagSoftDirty | pgtable.FlagWritable)
		})
		if err != nil {
			return false
		}
		return true
	})
	k.Clock.Advance(perPage * time.Duration(pages))
	cost := int64(perPage) * int64(pages)
	k.VCPU.Event(trace.KindClearRefs, k.Clock.Nanos()-cost, cost, 0, int64(pages))
	return nil
}

// Pagemap implements reading /proc/PID/pagemap from userspace: a full page
// table walk over the process's regions. The walk cost is the paper's M16
// curve (the dominant cost of the /proc technique), charged per page
// visited.
func (k *Kernel) Pagemap(pid Pid) ([]PagemapEntry, error) {
	p, ok := k.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchProcess, pid)
	}
	sp := k.VCPU.Prof.Begin(prof.SubGuestOS, "pagemap_walk")
	defer sp.End()
	perPage := k.Model.PTWalkUser.PerPage(p.curveSize())
	var entries []PagemapEntry
	pages := 0
	// Userspace reads pagemap over each VMA; absent pages still cost a
	// read of a zero entry.
	for _, r := range p.regions {
		for gva := r.Start; gva < r.End; gva = gva.Add(mem.PageSize) {
			pages++
			pte, present := p.PT.Lookup(gva)
			entries = append(entries, PagemapEntry{
				GVA:       gva,
				GPA:       pte.GPA(),
				Present:   present,
				SoftDirty: present && pte.SoftDirty(),
			})
		}
	}
	k.VCPU.Counters.Add(CtrPagemapPages, int64(pages))
	k.Clock.Advance(perPage * time.Duration(pages))
	if ev := k.VCPU.Met; ev != nil {
		ev.Count(metrics.SubGuestOS, "pagemap_walks", "", 1)
		ev.Count(metrics.SubGuestOS, "pagemap_pages", "", int64(pages))
	}
	return entries, nil
}

// PagemapWalkCharge charges the exact cost and observability of a full
// Pagemap read - the per-page M16 clock advance, the pagemap_walk profiler
// span, the CtrPagemapPages counter and the pagemap_walks/pagemap_pages
// metrics - without materializing the entries. Callers that resolve frames
// through the page table's own reverse index (the SPML fetch path) use it:
// the simulated guest still pays the full userspace walk, but the host does
// O(#regions) work instead of O(pages). It returns the page count the walk
// covered (present and absent alike, as Pagemap reads zero entries too).
func (k *Kernel) PagemapWalkCharge(pid Pid) (int, error) {
	p, ok := k.procs[pid]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchProcess, pid)
	}
	sp := k.VCPU.Prof.Begin(prof.SubGuestOS, "pagemap_walk")
	defer sp.End()
	perPage := k.Model.PTWalkUser.PerPage(p.curveSize())
	pages := 0
	for _, r := range p.regions {
		pages += int(mem.PagesFor(uint64(r.End - r.Start)))
	}
	k.VCPU.Counters.Add(CtrPagemapPages, int64(pages))
	k.Clock.Advance(perPage * time.Duration(pages))
	if ev := k.VCPU.Met; ev != nil {
		ev.Count(metrics.SubGuestOS, "pagemap_walks", "", 1)
		ev.Count(metrics.SubGuestOS, "pagemap_pages", "", int64(pages))
	}
	return pages, nil
}

// SoftDirtyPages returns just the soft-dirty page addresses of pid,
// charging the same walk cost as Pagemap.
func (k *Kernel) SoftDirtyPages(pid Pid) ([]mem.GVA, error) {
	if ev := k.VCPU.Met; ev != nil {
		ev.Count(metrics.SubGuestOS, "softdirty_scans", "", 1)
	}
	entries, err := k.Pagemap(pid)
	if err != nil {
		return nil, err
	}
	var dirty []mem.GVA
	for _, e := range entries {
		if e.SoftDirty {
			dirty = append(dirty, e.GVA)
		}
	}
	return dirty, nil
}
