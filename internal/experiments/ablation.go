package experiments

import (
	"fmt"
	"time"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// AblationRingCapacity sweeps the OoH ring buffer capacity under EPML on
// the microbenchmark. Undersized rings drop entries - the dropped counter
// is the design constraint OoH's ring sizing must satisfy (completeness).
func AblationRingCapacity() (*Result, error) {
	out := report.NewTable("Ablation: OoH ring capacity (EPML, 8 MB dirty set)",
		"Ring entries", "Dirty reported", "Dropped", "Collect time")
	const pages = 8 << 8
	for _, entries := range []int{256, 1024, 4096, 1 << 20} {
		m, err := machine.New(machine.Config{})
		if err != nil {
			return nil, err
		}
		g := m.Guest(0)
		proc := g.Kernel.Spawn("ablate")
		w := workloads.NewArrayParser(pages)
		if err := w.Setup(workloads.NewRegionAlloc(proc, true), sim.NewRNG(1)); err != nil {
			return nil, err
		}
		lib := g.EPML()
		lib.Module().RingEntries = entries
		sess, err := lib.Open(proc.Pid)
		if err != nil {
			return nil, err
		}
		if err := w.Run(); err != nil {
			return nil, err
		}
		start := g.Kernel.Clock.Nanos()
		dirty, err := sess.Fetch()
		if err != nil {
			return nil, err
		}
		elapsed := time.Duration(g.Kernel.Clock.Nanos() - start)
		dropped := lib.Module().SessionDropped(proc.Pid)
		out.AddRow(entries, len(dirty), dropped, elapsed)
		if err := sess.Close(); err != nil {
			return nil, err
		}
	}
	out.AddNote("rings smaller than the dirty set lose addresses: completeness requires headroom")
	return &Result{ID: "ablation-ring", Title: "Ring capacity ablation", Tables: []*report.Table{out}}, nil
}

// AblationTimeSlice sweeps the guest scheduler's time slice. Shorter
// slices raise N (context switches), multiplying SPML's per-switch
// hypercall pair while EPML pays only two vmwrites (Formula 4).
func AblationTimeSlice() (*Result, error) {
	out := report.NewTable("Ablation: scheduler time slice (10 MB microbenchmark)",
		"Slice", "Technique", "Context switches", "Tracked time")
	const pages = 10 << 8
	for _, slice := range []time.Duration{time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
		for _, kind := range []costmodel.Technique{costmodel.SPML, costmodel.EPML} {
			m, err := machine.New(machine.Config{})
			if err != nil {
				return nil, err
			}
			g := m.Guest(0)
			g.Kernel.Sched.Slice = slice
			proc := g.Kernel.Spawn("ablate")
			w := workloads.NewArrayParser(pages)
			if err := w.Setup(workloads.NewRegionAlloc(proc, true), sim.NewRNG(1)); err != nil {
				return nil, err
			}
			tech, err := g.NewTechnique(kind, proc)
			if err != nil {
				return nil, err
			}
			if err := tech.Init(); err != nil {
				return nil, err
			}
			g.Kernel.Sched.ResetSwitches()
			start := g.Kernel.Clock.Nanos()
			for p := 0; p < 3; p++ {
				if err := w.Run(); err != nil {
					return nil, err
				}
			}
			if _, err := tech.Collect(); err != nil {
				return nil, err
			}
			elapsed := time.Duration(g.Kernel.Clock.Nanos() - start)
			out.AddRow(slice.String(), kind.String(), g.Kernel.Sched.Switches(), elapsed)
			if err := tech.Close(); err != nil {
				return nil, err
			}
		}
	}
	out.AddNote("N multiplies SPML's enable/disable hypercalls but only EPML's sub-microsecond vmwrites")
	return &Result{ID: "ablation-slice", Title: "Time slice ablation", Tables: []*report.Table{out}}, nil
}

// OneCollect runs the microbenchmark under one technique and returns the
// per-collection measurements (for the collect-cost bench).
func OneCollect(kind costmodel.Technique, pages int) (MicroResult, error) {
	return runMicro(kind, pages, 1, machine.Config{})
}

// OneWorkloadPass sets up and runs one pass of the named workload at Small
// scale (host-side throughput bench).
func OneWorkloadPass(name string) error {
	m, err := machine.New(machine.Config{})
	if err != nil {
		return err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(name)
	w, err := workloads.New(name, workloads.Small, 1)
	if err != nil {
		return err
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(1)); err != nil {
		return fmt.Errorf("%s setup: %w", name, err)
	}
	return w.Run()
}
