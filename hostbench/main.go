// Command hostbench is the repository's host-time benchmark. It replays the
// paper's three evaluation scenarios the way oohbench runs them by default
// - micro-track (Fig. 4), criu-checkpoint (Figs. 7-9) and gc-observed
// (Fig. 5) - calling each layer only through its exported functions and
// timing every call from outside.
//
//	go run . -workload micro-track -seed 42 -seconds 30 -trace 0
//
// A run repeats its workload's grid, one pass after another on one
// goroutine, for about -seconds of host time. With -trace 0 it reports the
// end-to-end metrics as medians over the passes; with -trace 1 it adds a
// traced pass that records every call as a span and reports per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md lists every
// metric.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiments"
)

// golden.json holds each workload's digest at the default seed.
//
//go:embed golden.json
var goldenJSON []byte

const (
	// minPasses is the fewest passes an untraced run measures.
	minPasses = 2
	// hardCap keeps a run well inside the 180 s a run may take: no pass
	// starts that is expected to end after it.
	hardCap = 150 * time.Second
	// outDir, relative to the working directory, receives span dumps and
	// the digests of earlier runs.
	outDir = ".bench_build"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "micro-track, criu-checkpoint or gc-observed")
	seed := fs.Uint64("seed", experiments.DefaultSeed, "workload data seed")
	seconds := fs.Int("seconds", 30, "host seconds to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	grid, ok := grids[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hostbench: need -workload micro-track|criu-checkpoint|gc-observed, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b := &bench{name: *name, seed: *seed, budget: time.Duration(*seconds) * time.Second, grid: grid, start: time.Now()}
	var (
		ms  map[string]metric
		err error
	)
	if *traced == 1 {
		ms, err = b.traced()
	} else {
		ms, err = b.untraced()
	}
	if err == nil {
		err = b.checkRuns()
	}
	if err != nil {
		b.fail(err)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	for _, e := range b.errs {
		fmt.Fprintf(stderr, "hostbench: %v\n", e)
	}
	fmt.Fprintf(stdout, "hostbench %s seed=%d passes=%d digest=%s fail_ratio=%g (%d/%d)\n",
		b.name, b.seed, b.passes, b.digest(), float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %v %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run: repeated passes of one workload at one seed.
type bench struct {
	name   string
	seed   uint64
	budget time.Duration
	grid   func(*pass) error
	start  time.Time
	passes int

	sim string // the first pass's simulation digest
	obs string // the first observed pass's export hash ("" without planes)

	attempted, failed int
	errs              []error
}

func (b *bench) fail(err error) {
	b.attempted++
	b.failed++
	b.errs = append(b.errs, err)
}

// digest identifies the run's simulated outputs: every pass's simulation
// digest, plus the observability exports on gc-observed.
func (b *bench) digest() string {
	if b.obs == "" {
		return b.sim
	}
	return b.sim + "+" + b.obs
}

// pass runs the grid once from a collected heap and checks its digest
// against the run's first pass. It returns the pass's host time.
func (b *bench) pass(p *pass, traced bool) (time.Duration, error) {
	runtime.GC()
	rt0 := readRuntime()
	p.r, p.d, p.seed = newRecorder(traced), newDigest(), b.seed
	err := b.grid(p)
	p.wall = p.r.now()
	p.rt = readRuntime().sub(rt0)
	p.r.detach()
	b.passes++
	b.attempted += p.r.attempted
	b.failed += p.r.failed
	if p.r.firstErr != nil {
		b.errs = append(b.errs, p.r.firstErr)
	}
	if err != nil {
		if p.r.failed == 0 {
			b.fail(err)
		}
		return p.wall, err
	}
	p.d.add("totals", p.r.totals[:]...)
	b.same("simulation digest", &b.sim, p.d.sum())
	b.same("export digest", &b.obs, p.obs)
	return p.wall, nil
}

// same records a pass's digest in *first, or checks it against the one
// recorded there. An empty digest (a detached pass's exports) is skipped.
func (b *bench) same(what string, first *string, got string) {
	switch {
	case got == "":
	case *first == "":
		*first = got
	default:
		b.agree(what+" of a later pass", *first, got)
	}
}

// agree counts one check that got equals want.
func (b *bench) agree(what, want, got string) {
	b.attempted++
	if got != want {
		b.failed++
		b.errs = append(b.errs, fmt.Errorf("%s: got %s, want %s", what, got, want))
	}
}

// more reports whether another pass fits the run.
func (b *bench) more(walls []float64, collects int) bool {
	if len(walls) == 0 {
		return true
	}
	elapsed := time.Since(b.start)
	next := time.Duration(median(walls) * float64(time.Second))
	if elapsed+next > hardCap {
		return false
	}
	return len(walls) < minPasses || collects < minCollectSamples || elapsed+next <= b.budget
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced() (map[string]metric, error) {
	var walls, setups []float64
	var lat []time.Duration
	var accesses int64
	for b.more(walls, len(lat)) {
		p := &pass{}
		wall, err := b.pass(p, false)
		if err != nil {
			return nil, err
		}
		walls = append(walls, wall.Seconds())
		setups = append(setups, p.r.setup.Seconds())
		lat = append(lat, p.r.collect...)
		accesses = p.r.totals.accesses()
	}
	p50, p90, ok := collectPercentiles(lat)
	if !ok {
		return nil, fmt.Errorf("only %d Collects in %d passes, need %d", len(lat), len(walls), minCollectSamples)
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	wall := median(walls)
	return map[string]metric{
		"wall_s":             {wall, "s"},
		"setup_s":            {median(setups), "s"},
		"sim_accesses_per_s": {float64(accesses) / wall, "1/s"},
		"collect_p50_ms":     {p50, "ms"},
		"collect_p90_ms":     {p90, "ms"},
		"host_peak_mb":       {peak, "MB"},
	}, nil
}

// traced measures the per-layer metrics: a warm-up pass, untraced passes
// for a baseline, one traced pass, one pass checking every Collect against
// a Verifier, and on gc-observed as many passes again with the planes
// detached. The warm-up pass pays the process's first heap growth, which
// no later pass does, so it stays out of the baseline.
func (b *bench) traced() (map[string]metric, error) {
	if _, err := b.pass(&pass{}, false); err != nil {
		return nil, err
	}
	var base []float64
	for len(base) < minPasses || (time.Since(b.start) < b.budget/2 && len(base) < 5) {
		wall, err := b.pass(&pass{}, false)
		if err != nil {
			return nil, err
		}
		base = append(base, wall.Seconds())
	}

	tp := &pass{}
	wall, err := b.pass(tp, true)
	if err != nil {
		return nil, err
	}
	if _, err := b.pass(&pass{verify: true}, false); err != nil {
		return nil, err
	}
	obsOverhead := 0.0
	if tp.obs != "" {
		var det []float64
		for len(det) < len(base) {
			wall, err := b.pass(&pass{detached: true}, false)
			if err != nil {
				return nil, err
			}
			det = append(det, wall.Seconds())
		}
		obsOverhead = median(base) - median(det)
	}
	if err := b.writeSpans(tp.r.spans); err != nil {
		return nil, err
	}
	ms := layerMetrics(tp)
	ms["obs.overhead_s"] = metric{obsOverhead, "s"}
	ms["runtime.alloc_mb"] = metric{tp.rt.allocBytes / (1 << 20), "MB"}
	ms["runtime.gc_cycles"] = metric{tp.rt.gcCycles, "count"}
	ms["runtime.gc_cpu_s"] = metric{tp.rt.gcCPU, "s"}
	ms["bench.traced_wall_s"] = metric{wall.Seconds(), "s"}
	ms["bench.trace_overhead_s"] = metric{wall.Seconds() - median(base), "s"}
	return ms, nil
}

// layerMetrics derives the per-layer metrics of a traced pass.
func layerMetrics(tp *pass) map[string]metric {
	spans := tp.r.spans
	self, rooted := selfTimes(spans)
	calls := make(map[string]int)
	var runAccesses int64
	var collectTime time.Duration
	for _, s := range spans {
		calls[s.Name]++
		switch s.Name {
		case spRun:
			runAccesses += s.Delta.accesses()
		case spCollect:
			collectTime += s.dur()
		}
	}
	ms := make(map[string]metric)
	for _, n := range spanNames {
		ms[n+"_s"] = metric{self[n].Seconds(), "s"}
	}
	for _, n := range []string{spBoot, spFork, spRun, spCollect, spCheckpoint, spGCCollect} {
		ms[n+"_calls"] = metric{float64(calls[n]), "count"}
	}
	for i, mc := range modelCounters {
		ms[mc.metric] = metric{float64(tp.r.totals[i]), "count"}
	}
	ms["mem.frames_peak"] = metric{float64(tp.r.framesPeak), "count"}
	ms["workloads.ns_per_access"] = metric{ratio(float64(self[spRun]), runAccesses), "ns/access"}
	ms["tracking.pages_collected"] = metric{float64(tp.pages), "count"}
	ms["tracking.ns_per_page"] = metric{ratio(float64(collectTime), tp.pages), "ns/page"}
	ms["criu.rounds"] = metric{float64(tp.rounds), "count"}
	ms["criu.pages_written"] = metric{float64(tp.dumped), "count"}
	ms["bench.unattributed_s"] = metric{(tp.wall - rooted).Seconds(), "s"}
	return ms
}

func ratio(num float64, den int64) float64 {
	if den == 0 {
		return 0
	}
	return num / float64(den)
}

// checkRuns compares the run's digest with the committed golden (default
// seed) and with any earlier run of this seed in the same checkout.
func (b *bench) checkRuns() error {
	var golden struct {
		Seed    uint64            `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %w", err)
	}
	if b.seed == golden.Seed {
		b.agree("digest vs golden.json", golden.Digests[b.name], b.digest())
	}
	path := filepath.Join(outDir, "digests", fmt.Sprintf("%s-%d", b.name, b.seed))
	prev, err := os.ReadFile(path)
	switch {
	case err == nil:
		b.agree("digest vs an earlier run of this seed", string(prev), b.digest())
		return nil
	case errors.Is(err, os.ErrNotExist):
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, []byte(b.digest()), 0o644)
	}
	return err
}

// writeSpans writes the traced pass's spans and counter deltas.
func (b *bench) writeSpans(spans []span) error {
	names := make([]string, len(modelCounters))
	for i, mc := range modelCounters {
		names[i] = mc.metric
	}
	data, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Counters []string `json:"counters"`
		Spans    []span   `json:"spans"`
	}{b.name, b.seed, names, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-%d.json", b.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type runtimeStats struct{ allocBytes, gcCycles, gcCPU float64 }

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU}
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64()), s[2].Value.Float64()}
}
