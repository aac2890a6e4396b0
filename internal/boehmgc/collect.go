package boehmgc

import (
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StartIncremental arms the dirty page technique immediately, so that even
// the first collection cycle runs incrementally over the pages dirtied
// since this call (typically: everything the application allocates and
// initializes). This matches the paper's Boehm integration, where the
// first cycle carries SPML's full reverse-mapping cost (Fig. 5). Without
// it, the first Collect is a full stop-the-world trace and the technique
// arms afterwards.
func (g *GC) StartIncremental() error {
	if g.Tech == nil || g.tracking {
		return nil
	}
	if err := g.Tech.Init(); err != nil {
		return err
	}
	g.tracking = true
	return nil
}

// Collect runs one garbage collection cycle.
//
// The first cycle (and every cycle when no technique is installed) is a
// full stop-the-world trace: every reachable object's pointer slots are
// read from guest memory. Subsequent cycles are incremental: the mark
// phase first asks the tracking technique for the pages dirtied since the
// previous cycle - this is the exact step the paper patches in Boehm - and
// then re-reads only objects that are new or sit on dirty pages, tracing
// unmodified old objects from the cached shadow graph.
func (g *GC) Collect() (CycleStats, error) {
	stats := CycleStats{Cycle: len(g.cycles) + 1}
	v := g.Proc.Kernel().VCPU
	cycleStart := g.clock.Nanos()
	total := sim.StartWatch(g.clock)
	tap := v.Prof
	cySp := tap.Begin(prof.SubGC, "cycle")
	defer cySp.End()

	// --- mark phase -------------------------------------------------------
	mark := sim.StartWatch(g.clock)
	markSp := tap.Begin(prof.SubGC, "mark")

	clear(g.dirty)
	dirty := g.dirty
	full := g.Tech == nil || !g.tracking
	if !full {
		tw := sim.StartWatch(g.clock)
		trackSp := tap.Begin(prof.SubGC, "track")
		pages, err := g.Tech.Collect()
		if err != nil {
			return stats, err
		}
		trackSp.End()
		stats.TrackTime = tw.Elapsed()
		for _, p := range pages {
			dirty[p.PageFloor()] = struct{}{}
		}
		stats.Incremental = true
		stats.DirtyPages = len(dirty)
	}

	clear(g.marked)
	marked := g.marked
	// Seed the stack in sorted address order: root map iteration order is
	// randomized per process, and since per-object scan costs differ (shadow
	// hits vs word-by-word reads), a different visit order changes the
	// clock's intermediate values - enough to move metric sampler ticks
	// between identically-seeded runs, even though the cycle total is
	// order-invariant.
	var stack []mem.GVA
	for root := range g.roots {
		stack = append(stack, root)
	}
	slices.Sort(stack)
	for len(stack) > 0 {
		addr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if addr == 0 {
			continue
		}
		if _, ok := g.Heap.BlockSize(addr); !ok {
			continue // conservative: not a managed object
		}
		if _, dup := marked[addr]; dup {
			continue
		}
		marked[addr] = struct{}{}
		g.clock.Advance(g.markEntryCost)

		edges, err := g.objectEdges(addr, full, dirty, &stats)
		if err != nil {
			return stats, err
		}
		stack = append(stack, edges...)
	}
	markSp.End()
	stats.MarkTime = mark.Elapsed()
	v.Event(trace.KindGCMark, g.clock.Nanos()-int64(stats.MarkTime), int64(stats.MarkTime), 0, int64(stats.Scanned))

	// --- sweep phase ------------------------------------------------------
	sweepStart := g.clock.Nanos()
	sweep := sim.StartWatch(g.clock)
	sweepSp := tap.Begin(prof.SubGC, "sweep")
	dead := g.dead[:0]
	g.Heap.Blocks(func(addr mem.GVA, size uint64) bool {
		if _, live := marked[addr]; !live {
			dead = append(dead, addr)
		}
		g.clock.Advance(g.markEntryCost)
		return true
	})
	// Free in address order: map iteration order must not leak into the
	// free list, or allocation addresses (and thus page-dirty patterns)
	// would differ between identically-seeded runs.
	slices.Sort(dead)
	for _, addr := range dead {
		delete(g.shadow, addr)
		if err := g.Heap.Free(addr); err != nil {
			return stats, err
		}
	}
	g.dead = dead
	sweepSp.End()
	stats.SweepTime = sweep.Elapsed()
	stats.Freed = len(dead)
	stats.Live = len(marked)
	v.Event(trace.KindGCSweep, sweepStart, g.clock.Nanos()-sweepStart, 0, int64(stats.Freed))

	// Re-arm the dirty tracker for the next incremental cycle.
	if g.Tech != nil && !g.tracking {
		if err := g.Tech.Init(); err != nil {
			return stats, err
		}
		g.tracking = true
	}
	g.bytesSinceGC = 0

	stats.Total = total.Elapsed()
	g.cycles = append(g.cycles, stats)
	v.Event(trace.KindGCCycle, cycleStart, g.clock.Nanos()-cycleStart, 0, int64(stats.Cycle))
	return stats, nil
}

// shadowEntry is one old object's cached state: its outgoing edges as of
// the last scan and its block size (header included), so the dirty-page
// probe needs no heap lookup.
type shadowEntry struct {
	edges []mem.GVA
	size  uint64
}

// objectEdges returns the outgoing pointers of the object at addr. During
// incremental cycles, clean old objects come from the shadow graph (no
// guest memory reads); dirty or new objects are re-read and the shadow is
// refreshed.
func (g *GC) objectEdges(addr mem.GVA, full bool, dirty map[mem.GVA]struct{}, stats *CycleStats) ([]mem.GVA, error) {
	if !full {
		// Only old objects can have a shadow entry (see the field comment),
		// so its presence subsumes the new-since-GC check.
		if se, ok := g.shadow[addr]; ok && !blockDirty(addr, se.size, dirty) {
			stats.SkippedScan++
			g.clock.Advance(g.markEntryCost)
			return se.edges, nil
		}
	}
	// Scan from guest memory.
	h, err := g.Proc.ReadU64(addr)
	if err != nil {
		return nil, err
	}
	size, nptrs := decodeHeader(h)
	edges := make([]mem.GVA, 0, nptrs)
	for i := 0; i < nptrs; i++ {
		v, err := g.Proc.ReadU64(addr.Add(headerBytes + uint64(i)*8))
		if err != nil {
			return nil, err
		}
		if v != 0 {
			edges = append(edges, mem.GVA(v))
		}
		g.clock.Advance(g.scanWordCost)
	}
	stats.Scanned++
	// The header's size field is the aligned payload size Alloc passed to
	// the heap, so headerBytes+size is exactly Heap.BlockSize(addr).
	g.shadow[addr] = shadowEntry{edges: edges, size: headerBytes + size}
	return edges, nil
}

// blockDirty reports whether any page a block of size bytes at addr
// touches is in the dirty set.
func blockDirty(addr mem.GVA, size uint64, dirty map[mem.GVA]struct{}) bool {
	for page := addr.PageFloor(); page < addr.Add(size); page = page.Add(mem.PageSize) {
		if _, yes := dirty[page]; yes {
			return true
		}
	}
	return false
}

// TotalGCTime sums all cycle times (Fig. 5's per-application aggregate).
func (g *GC) TotalGCTime() time.Duration {
	var total time.Duration
	for _, c := range g.cycles {
		total += c.Total
	}
	return total
}
