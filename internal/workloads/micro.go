package workloads

import (
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// ArrayParser is the paper's Listing-1 microbenchmark: an array of
// page-sized buffers, pinned in memory (mlockall), written one word per
// page per pass:
//
//	for(;;)
//	  for (i = 0; i < num_pg; i++)
//	    region[(i*PAGE_SIZE)/sizeof(long)] = i;
//
// Run performs one inner pass over the array.
type ArrayParser struct {
	Pages int

	proc   *guestos.Process
	region guestos.Region
	pass   uint64
	ready  bool
}

// NewArrayParser returns the microbenchmark over n pages.
func NewArrayParser(pages int) *ArrayParser { return &ArrayParser{Pages: pages} }

// Name implements Workload.
func (w *ArrayParser) Name() string { return "micro/array-parser" }

// Setup implements Workload: allocate and pin the array.
func (w *ArrayParser) Setup(alloc Allocator, rng *sim.RNG) error {
	w.proc = alloc.Proc()
	start, err := alloc.Alloc(uint64(w.Pages) * mem.PageSize)
	if err != nil {
		return err
	}
	w.region = guestos.Region{Start: start, End: start.Add(uint64(w.Pages) * mem.PageSize)}
	// mlockall: touch every page so none is demand-faulted during the
	// monitored passes.
	for p := 0; p < w.Pages; p++ {
		if err := w.proc.WriteU64(w.region.Start.Add(uint64(p)*mem.PageSize), 0); err != nil {
			return err
		}
	}
	w.ready = true
	return nil
}

// Adopt binds w to a process whose memory already holds the image a
// previous Setup produced - a fork of a warmed machine snapshot: the
// forked guest replays the warmed array, so only the host-side binding
// (process handle, region, rewound pass counter) needs rebuilding. region must be the
// Region() of the workload that warmed the capture source.
func (w *ArrayParser) Adopt(proc *guestos.Process, region guestos.Region) {
	w.proc = proc
	w.region = region
	w.pass = 0
	w.ready = true
}

// Run implements Workload: one pass writing one word into every page.
func (w *ArrayParser) Run() error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	w.pass++
	for i := 0; i < w.Pages; i++ {
		gva := w.region.Start.Add(uint64(i) * mem.PageSize)
		if err := w.proc.WriteU64(gva, uint64(i)+w.pass<<32); err != nil {
			return err
		}
	}
	return nil
}

// WorkingSet implements Workload.
func (w *ArrayParser) WorkingSet() uint64 { return uint64(w.Pages) * mem.PageSize }

// Region exposes the monitored array (tests assert on its dirty set).
func (w *ArrayParser) Region() guestos.Region { return w.region }
