package experiments

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/workloads"
)

// Fig3 regenerates Figure 3: the time of reverse mapping, PT walk and ring
// buffer copy during SPML's collection phase, as the memory size grows.
// Reverse mapping must dominate (paper: >68 % of collection time).
func Fig3(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	sizes := opt.microSizes()
	results := make([]MicroResult, len(sizes))
	ps := opt.newShards(len(sizes))
	err := par.ForEach(len(sizes), opt.Workers, func(i int) error {
		var err error
		results[i], err = runMicro(costmodel.SPML, sizes[i]<<8, opt.Seed, ps.cell(i))
		return err
	})
	ps.merge()
	if err != nil {
		return nil, err
	}

	out := report.NewTable("Fig. 3: SPML collection phase breakdown",
		"Memory", "Reverse mapping", "PT walk", "RB copy", "RevMap share")
	for i, mb := range sizes {
		bd := results[i].Fetch
		share := 0.0
		if t := bd.Total(); t > 0 {
			share = float64(bd.ReverseMap) / float64(t) * 100
		}
		out.AddRow(report.FormatBytes(uint64(mb)<<20),
			bd.ReverseMap, bd.PTWalk, bd.RingCopy,
			fmt.Sprintf("%.0f%%", share))
	}
	out.AddNote("paper: reverse mapping is the bottleneck, >68%% of collection time on average")
	return &Result{ID: "fig3", Title: "Fig. 3: SPML collection breakdown", Tables: []*report.Table{out}}, nil
}

// Fig4 regenerates Figure 4: the slowdown each technique inflicts on the
// microbenchmark as memory grows (paper: SPML up to 66x, ufd up to 15x,
// /proc ~4x, EPML <= 0.6 %).
func Fig4(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	sizes := opt.microSizes()
	kinds := []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML}

	type cell struct {
		kind costmodel.Technique
		mb   int
		res  MicroResult
	}
	var grid []cell
	for _, kind := range kinds {
		for _, mb := range sizes {
			grid = append(grid, cell{kind: kind, mb: mb})
		}
	}
	ps := opt.newShards(len(grid))
	err := par.ForEach(len(grid), opt.Workers, func(i int) error {
		r, err := runMicro(grid[i].kind, grid[i].mb<<8, opt.Seed, ps.cell(i))
		grid[i].res = r
		return err
	})
	ps.merge()
	if err != nil {
		return nil, err
	}

	headers := []string{"Technique"}
	for _, mb := range sizes {
		headers = append(headers, report.FormatBytes(uint64(mb)<<20))
	}
	out := report.NewTable("Fig. 4: slowdown (x) of each technique on the microbenchmark", headers...)
	for _, kind := range kinds {
		row := []any{kind.String()}
		for _, c := range grid {
			if c.kind == kind {
				row = append(row, report.FormatFactor(c.res.Slowdown()))
			}
		}
		out.AddRow(row...)
	}
	out.AddNote("paper: SPML worst at large sizes (<=66x), ufd worst below 250MB (<=15x), EPML <=1.006x")
	return &Result{ID: "fig4", Title: "Fig. 4: microbenchmark slowdown", Tables: []*report.Table{out}}, nil
}

// Fig5 regenerates Figure 5: Boehm GC time per application and config under
// /proc, SPML and EPML, highlighting the first cycle (SPML's reverse map).
func Fig5(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	grid := boehmGrid(opt, boehmTechniques())
	ps := opt.newShards(len(grid))
	err := par.ForEach(len(grid), opt.Workers, func(i int) error {
		c := &grid[i]
		r, err := runBoehm(c.app, c.size, opt.Scale, c.kind, opt.Seed, ps.cell(i))
		if err != nil {
			return fmt.Errorf("fig5 %s/%s/%s: %w", c.app, c.size, c.kind, err)
		}
		c.res = r
		return nil
	})
	ps.merge()
	if err != nil {
		return nil, err
	}

	out := report.NewTable("Fig. 5: Boehm GC time (total, [first cycle]) per technique",
		"App", "Config", "/proc", "SPML", "EPML", "cycles")
	i := 0
	for _, app := range opt.boehmApps() {
		for _, size := range boehmSizes(opt) {
			row := []any{app, size.String()}
			cycles := 0
			for range boehmTechniques() {
				r := grid[i].res
				i++
				row = append(row, fmt.Sprintf("%s [%s]",
					report.FormatDuration(r.GCTime), report.FormatDuration(r.FirstGC)))
				cycles = len(r.Cycles)
			}
			row = append(row, cycles)
			out.AddRow(row...)
		}
	}
	out.AddNote("paper: ignoring the first cycle SPML beats /proc by up to 36%%; EPML beats both (<=58%%/47%%)")
	return &Result{ID: "fig5", Title: "Fig. 5: Boehm GC time", Tables: []*report.Table{out}}, nil
}

// Fig6 regenerates Figure 6: the impact of tracked Boehm GC on the
// application's execution time, relative to the untracked baseline.
func Fig6(opt Options) (*Result, error) {
	opt = opt.withDefaults()
	// The grid includes the untracked Oracle baseline as a cell of its own
	// per (app, size), so baselines run in parallel with the tracked cells.
	kinds := append([]costmodel.Technique{costmodel.Oracle}, boehmTechniques()...)
	grid := boehmGrid(opt, kinds)
	ps := opt.newShards(len(grid))
	err := par.ForEach(len(grid), opt.Workers, func(i int) error {
		c := &grid[i]
		r, err := runBoehm(c.app, c.size, opt.Scale, c.kind, opt.Seed, ps.cell(i))
		if err != nil {
			return fmt.Errorf("fig6 %s/%s/%s: %w", c.app, c.size, c.kind, err)
		}
		c.res = r
		return nil
	})
	ps.merge()
	if err != nil {
		return nil, err
	}

	out := report.NewTable("Fig. 6: overhead (%) of Boehm GC tracking on the application",
		"App", "Config", "/proc", "SPML", "EPML")
	i := 0
	for _, app := range opt.boehmApps() {
		for _, size := range boehmSizes(opt) {
			base := grid[i].res // the Oracle cell leads each (app, size) group
			i++
			row := []any{app, size.String()}
			for range boehmTechniques() {
				r := grid[i].res
				i++
				r.Ideal = base.AppTime
				row = append(row, report.FormatPercent(r.TrackedOverheadPct()))
			}
			out.AddRow(row...)
		}
	}
	out.AddNote("paper: /proc <=232%%, SPML <=273%% (string-match), EPML <=24%%, avg ~3%%")
	return &Result{ID: "fig6", Title: "Fig. 6: Boehm impact on Tracked", Tables: []*report.Table{out}}, nil
}

// boehmCell is one (app, size, technique) cell of a Boehm figure's grid.
type boehmCell struct {
	app  string
	size workloads.Size
	kind costmodel.Technique
	res  BoehmResult
}

// boehmGrid enumerates a Boehm figure's grid in row order: apps, then
// sizes, then kinds innermost. Renderers walk the same order.
func boehmGrid(opt Options, kinds []costmodel.Technique) []boehmCell {
	var grid []boehmCell
	for _, app := range opt.boehmApps() {
		for _, size := range boehmSizes(opt) {
			for _, kind := range kinds {
				grid = append(grid, boehmCell{app: app, size: size, kind: kind})
			}
		}
	}
	return grid
}

func boehmSizes(opt Options) []workloads.Size {
	if opt.Full {
		return workloads.Sizes()
	}
	return []workloads.Size{workloads.Small, workloads.Medium}
}

// Fig7 regenerates Figure 7: CRIU memory-write (MW) time per technique.
func Fig7(opt Options) (*Result, error) {
	return criuFigure(opt, "fig7", "Fig. 7: CRIU memory write (MW) time",
		func(r CRIUResult) string { return report.FormatDuration(r.Stats.MW) },
		"paper: SPML/EPML improve MW by up to 26x vs /proc (interleaved pagemap walk)")
}

// Fig8 regenerates Figure 8: complete checkpoint time with the MD phase.
func Fig8(opt Options) (*Result, error) {
	return criuFigure(opt, "fig8", "Fig. 8: CRIU checkpoint time (total, [MD phase])",
		func(r CRIUResult) string {
			return fmt.Sprintf("%s [%s]", report.FormatDuration(r.Stats.Total), report.FormatDuration(r.Stats.MD))
		},
		"paper: SPML <=5x slower than /proc; EPML <=4x faster than /proc, <=13x faster than SPML")
}

// Fig9 regenerates Figure 9: the checkpointed application's overhead.
func Fig9(opt Options) (*Result, error) {
	return criuFigure(opt, "fig9", "Fig. 9: overhead (%) of CRIU on the tracked application",
		func(r CRIUResult) string { return report.FormatPercent(r.TrackedOverheadPct()) },
		"paper: /proc <=102%% (pca), SPML 1-114%%, EPML <=14%% (avg 3%%)")
}

// criuFigure runs the CRIU grid once and projects one statistic.
func criuFigure(opt Options, id, title string, cell func(CRIUResult) string, note string) (*Result, error) {
	opt = opt.withDefaults()
	kinds := []costmodel.Technique{costmodel.Proc, costmodel.SPML, costmodel.EPML}
	apps := opt.criuWorkloads()

	type item struct {
		app  string
		kind costmodel.Technique
		res  CRIUResult
	}
	var grid []item
	for _, app := range apps {
		for _, kind := range kinds {
			grid = append(grid, item{app: app, kind: kind})
		}
	}
	ps := opt.newShards(len(grid))
	err := par.ForEach(len(grid), opt.Workers, func(i int) error {
		r, err := runCRIU(grid[i].app, workloads.Large, opt.Scale, grid[i].kind, opt.Seed, ps.cell(i))
		grid[i].res = r
		return err
	})
	ps.merge()
	if err != nil {
		return nil, err
	}

	out := report.NewTable(title, "App (Large)", "/proc", "SPML", "EPML")
	for _, app := range apps {
		row := []any{app}
		for _, kind := range kinds {
			for _, it := range grid {
				if it.app == app && it.kind == kind {
					row = append(row, cell(it.res))
				}
			}
		}
		out.AddRow(row...)
	}
	out.AddNote(note)
	return &Result{ID: id, Title: title, Tables: []*report.Table{out}}, nil
}
