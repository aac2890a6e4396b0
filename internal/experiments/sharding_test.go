package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prof"
	"repro/internal/trace"
)

// observedRun is everything a probed experiment run leaves behind: the
// rendered tables, the JSONL trace stream, both metrics snapshot export
// formats, and both profiler export formats.
type observedRun struct {
	table  string
	jsonl  []byte
	prom   []byte
	mjson  []byte
	folded []byte
	pprof  []byte
}

// runObserved drives one experiment with every probe attached at the given
// worker count and captures every output byte.
func runObserved(t *testing.T, id string, workers int, mask uint64) observedRun {
	t.Helper()
	var traceBuf bytes.Buffer
	tr := trace.New(trace.NewJSONLWriter(&traceBuf), 0)
	tr.SetMask(mask)
	reg := metrics.NewRegistry()
	reg.NewSampler(250 * time.Microsecond)
	profiler := prof.New()

	res, err := Run(id, Options{Workers: workers, Seed: 11, Tracer: tr, Metrics: reg, Profiler: profiler})
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", id, workers, err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("%s (workers=%d): closing trace: %v", id, workers, err)
	}
	snap := reg.Snapshot()
	var prom, mjson, folded, pb bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := snap.WriteJSONL(&mjson); err != nil {
		t.Fatal(err)
	}
	if err := profiler.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	if err := profiler.WritePprof(&pb); err != nil {
		t.Fatal(err)
	}
	return observedRun{table: res.Render(), jsonl: traceBuf.Bytes(), prom: prom.Bytes(),
		mjson: mjson.Bytes(), folded: folded.Bytes(), pprof: pb.Bytes()}
}

// checkByteIdentical compares a Workers=8 run against the Workers=1 run of
// the same experiment at the same seed: the tentpole guarantee is that the
// merged shards reproduce the serial observation stream byte for byte.
func checkByteIdentical(t *testing.T, id string, mask uint64) {
	t.Helper()
	serial := runObserved(t, id, 1, mask)
	parallel := runObserved(t, id, 8, mask)
	if serial.table != parallel.table {
		t.Errorf("%s: rendered tables differ between workers=1 and workers=8", id)
	}
	if !bytes.Equal(serial.jsonl, parallel.jsonl) {
		t.Errorf("%s: JSONL traces differ (serial %d bytes, parallel %d bytes)",
			id, len(serial.jsonl), len(parallel.jsonl))
	}
	if !bytes.Equal(serial.prom, parallel.prom) {
		t.Errorf("%s: Prometheus snapshots differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			id, serial.prom, parallel.prom)
	}
	if !bytes.Equal(serial.mjson, parallel.mjson) {
		t.Errorf("%s: JSONL snapshots differ", id)
	}
	if !bytes.Equal(serial.folded, parallel.folded) {
		t.Errorf("%s: folded-stack profiles differ:\n--- serial ---\n%s\n--- parallel ---\n%s",
			id, serial.folded, parallel.folded)
	}
	if !bytes.Equal(serial.pprof, parallel.pprof) {
		t.Errorf("%s: pprof profiles differ (serial %d bytes, parallel %d bytes)",
			id, len(serial.pprof), len(parallel.pprof))
	}
	if len(serial.jsonl) == 0 {
		t.Errorf("%s: trace stream is empty - the probes were not attached", id)
	}
	if len(serial.folded) == 0 {
		t.Errorf("%s: folded profile is empty - the profiler was not attached", id)
	}
}

// TestShardedObservabilityDeterminism proves the shard/merge planes: a
// fully probed Workers=8 sweep produces byte-identical trace and metrics
// output to the Workers=1 sweep at the same seed.
func TestShardedObservabilityDeterminism(t *testing.T) {
	// The fault matrix is cheap enough to trace every kind.
	checkByteIdentical(t, "fault-matrix", trace.AllKinds)

	if testing.Short() {
		t.Skip("table1 grid skipped with -short")
	}
	// Table1's grid emits millions of per-page records under AllKinds;
	// bound the stream to the technique-phase kinds the way a real traced
	// sweep would.
	mask, err := trace.ParseKinds("track_init,track_collect,track_close,clear_refs,hypercall")
	if err != nil {
		t.Fatal(err)
	}
	checkByteIdentical(t, "table1", mask)
}

// TestWithDefaultsSeed pins the unset-vs-explicit-zero distinction: a zero
// Seed without SeedSet means "unset" and gets DefaultSeed, while an
// explicit zero (SeedSet) is honored. NewBenchReport surfaces the resolved
// seed, which is what `oohbench -json` records.
func TestWithDefaultsSeed(t *testing.T) {
	if got := NewBenchReport(Options{}, nil, nil).Seed; got != DefaultSeed {
		t.Errorf("unset seed resolved to %d, want DefaultSeed %d", got, DefaultSeed)
	}
	if got := NewBenchReport(Options{Seed: 0, SeedSet: true}, nil, nil).Seed; got != 0 {
		t.Errorf("explicit zero seed resolved to %d, want 0", got)
	}
	if got := NewBenchReport(Options{Seed: 7}, nil, nil).Seed; got != 7 {
		t.Errorf("seed 7 resolved to %d", got)
	}
}
