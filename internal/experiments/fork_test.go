package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// microEnter hands a micro cell its warmed guest, workload process and
// bound parser with p's probes attached.
type microEnter func(p probes) (*machine.Guest, *guestos.Process, *workloads.ArrayParser, error)

// microObserved is everything one micro cell leaves behind: the cell, the
// tracked vCPU's final counters, and the trace and metrics exports.
type microObserved struct {
	res      MicroResult
	counters map[string]int64
	jsonl    []byte
	prom     []byte
}

// observeMicro runs runMicro's two phases - the unprobed ideal passes,
// then the probed tracked run - on machines from enter.
func observeMicro(t *testing.T, kind costmodel.Technique, enter microEnter) microObserved {
	t.Helper()
	g, _, w, err := enter(probes{})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := timeMicroPasses(g, w)
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	tr := trace.New(trace.NewJSONLWriter(&traceBuf), 0)
	reg := metrics.NewRegistry()
	reg.NewSampler(250 * time.Microsecond)
	g, proc, w, err := enter(probes{tr: tr, reg: reg})
	if err != nil {
		t.Fatal(err)
	}
	res, err := trackMicro(kind, ideal, g, proc, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return microObserved{res: res, counters: g.Kernel.VCPU.Counters.Snapshot(),
		jsonl: traceBuf.Bytes(), prom: prom.Bytes()}
}

// forkEnter warms one micro machine with no probes, captures it, and
// enters every cell through a fork of that snapshot with the cell's probes
// in the fork config and the parser adopted onto the forked process - the
// way hostbench's micro-track replays the micro grid.
func forkEnter(t *testing.T, pages int, seed uint64) microEnter {
	t.Helper()
	src, proc, w, err := warmMicro(pages, seed, probes{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := src.CaptureSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	pid, region := proc.Pid, w.Region()
	return func(p probes) (*machine.Guest, *guestos.Process, *workloads.ArrayParser, error) {
		m, err := snap.Fork(p.config())
		if err != nil {
			return nil, nil, nil, err
		}
		g := m.Guest(0)
		proc, ok := g.Kernel.Process(pid)
		if !ok {
			return nil, nil, nil, fmt.Errorf("fork lost pid %d", pid)
		}
		w := workloads.NewArrayParser(pages)
		w.Adopt(proc, region)
		return g, proc, w, nil
	}
}

// coldEnter enters every cell through its own boot and warm-up, as
// runMicro does.
func coldEnter(pages int, seed uint64) microEnter {
	return func(p probes) (*machine.Guest, *guestos.Process, *workloads.ArrayParser, error) {
		m, proc, w, err := warmMicro(pages, seed, p)
		if err != nil {
			return nil, nil, nil, err
		}
		return m.Guest(0), proc, w, nil
	}
}

// checkForkMatchesCold runs kind's cell on forks from fork and on cold
// boots and requires every MicroResult field, vCPU counter, trace byte and
// metrics-export byte to match; the cold cell must also be runMicro's.
func checkForkMatchesCold(t *testing.T, kind costmodel.Technique, pages int, seed uint64, fork microEnter) {
	t.Helper()
	cold := observeMicro(t, kind, coldEnter(pages, seed))
	forked := observeMicro(t, kind, fork)
	if want, err := runMicro(kind, pages, seed, probes{}); err != nil {
		t.Fatal(err)
	} else if cold.res != want {
		t.Errorf("%v/%d pages: cold cell diverges from runMicro:\ncold:     %+v\nrunMicro: %+v", kind, pages, cold.res, want)
	}
	if forked.res != cold.res {
		t.Errorf("%v/%d pages: forked cell diverges from cold boot:\nforked: %+v\ncold:   %+v", kind, pages, forked.res, cold.res)
	}
	if !reflect.DeepEqual(forked.counters, cold.counters) {
		t.Errorf("%v/%d pages: vCPU counters differ:\nforked: %v\ncold:   %v", kind, pages, forked.counters, cold.counters)
	}
	if len(cold.jsonl) == 0 {
		t.Fatalf("%v/%d pages: cold run traced nothing", kind, pages)
	}
	if !bytes.Equal(forked.jsonl, cold.jsonl) {
		t.Errorf("%v/%d pages: JSONL traces differ (forked %d bytes, cold %d bytes)", kind, pages, len(forked.jsonl), len(cold.jsonl))
	}
	if !bytes.Equal(forked.prom, cold.prom) {
		t.Errorf("%v/%d pages: Prometheus exports differ:\n--- forked ---\n%s\n--- cold ---\n%s", kind, pages, forked.prom, cold.prom)
	}
}

// TestForkDeterminism pins the fork contract hostbench's micro-track
// relies on when it replays the micro grid on forks: every cell of the
// micro-grid experiments at the default seed, run on a fork of a warm
// snapshot (one per size, shared by all the techniques), is
// indistinguishable from the same cell on a cold-booted machine.
func TestForkDeterminism(t *testing.T) {
	opt := Options{}.withDefaults()
	var sizes []int
	for _, mb := range opt.microSizes() {
		sizes = append(sizes, mb<<8)
	}
	grids := []struct {
		id    string
		kinds []costmodel.Technique
		pages []int
	}{
		{"fig3", []costmodel.Technique{costmodel.SPML}, sizes},
		{"table1", []costmodel.Technique{costmodel.Ufd, costmodel.Proc}, sizes},
		{"table4", []costmodel.Technique{costmodel.SPML, costmodel.Proc, costmodel.EPML}, []int{4096}},
		{"fig4", []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML}, sizes},
	}
	if testing.Short() {
		// fig4 repeats fig3's and table1's cells plus EPML's.
		grids = grids[:3]
	}
	for _, g := range grids {
		t.Run(g.id, func(t *testing.T) {
			for _, pages := range g.pages {
				fork := forkEnter(t, pages, opt.Seed)
				for _, kind := range g.kinds {
					checkForkMatchesCold(t, kind, pages, opt.Seed, fork)
				}
			}
		})
	}
}

// TestForkedMicroMatchesColdBoot pins the determinism contract at the cell
// level off the default grid: at 6 MiB and seed 17, each technique's
// micro cell forked from one warm snapshot reports exactly what the same
// cell reports after a cold boot and warm-up - every virtual time,
// counter, breakdown field, trace byte and metrics byte.
func TestForkedMicroMatchesColdBoot(t *testing.T) {
	const pages, seed = 6 << 8, 17
	fork := forkEnter(t, pages, seed)
	for _, kind := range []costmodel.Technique{costmodel.Proc, costmodel.Ufd, costmodel.SPML, costmodel.EPML} {
		checkForkMatchesCold(t, kind, pages, seed, fork)
	}
}
