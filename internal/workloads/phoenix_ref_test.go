package workloads

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// refPCARun is the row-major textbook PCA.Run: the oracle the kernel's
// host data layout is checked against.
func refPCARun(w *PCA) error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	r, c := w.Rows, w.Cols
	rowBytes := uint64(c) * 8
	matrix := make([]float64, r*c)
	row := make([]byte, rowBytes)
	for i := 0; i < r; i++ {
		if err := readChunk(w.proc, w.data.Add(uint64(i)*rowBytes), row); err != nil {
			return err
		}
		for j := 0; j < c; j++ {
			matrix[i*c+j] = math.Float64frombits(u64At(row, j*8))
		}
	}
	means := make([]float64, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			means[j] += matrix[i*c+j]
		}
	}
	out := make([]byte, rowBytes)
	for j := 0; j < c; j++ {
		means[j] /= float64(r)
		putU64(out, j*8, math.Float64bits(means[j]))
	}
	if err := writeChunk(w.proc, w.means, out); err != nil {
		return err
	}
	chargeFlops(w.proc, int64(r)*int64(c)+int64(r)*int64(c)*(2*covBand+1)*3)
	w.Trace = 0
	for j := 0; j < c; j++ {
		for k := 0; k < c; k++ {
			putU64(out, k*8, 0)
		}
		lo, hi := j-covBand, j+covBand
		if lo < 0 {
			lo = 0
		}
		if hi >= c {
			hi = c - 1
		}
		for k := lo; k <= hi; k++ {
			var s float64
			for i := 0; i < r; i++ {
				s += (matrix[i*c+j] - means[j]) * (matrix[i*c+k] - means[k])
			}
			s /= float64(r - 1)
			putU64(out, k*8, math.Float64bits(s))
			if k == j {
				w.Trace += s
			}
		}
		if err := writeChunk(w.proc, w.cov.Add(uint64(j)*rowBytes), out); err != nil {
			return err
		}
	}
	return nil
}

// refKMeansRun is the textbook KMeans.Run, decoding every coordinate
// where it is used: the oracle for the kernel's host data layout.
func refKMeansRun(w *KMeans) error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	rowBytes := uint64(w.Dims) * 8
	cent := make([][]float64, w.Clusters)
	row := make([]byte, rowBytes)
	for c := 0; c < w.Clusters; c++ {
		if err := readChunk(w.proc, w.centroids.Add(uint64(c)*rowBytes), row); err != nil {
			return err
		}
		cent[c] = make([]float64, w.Dims)
		for j := 0; j < w.Dims; j++ {
			cent[c][j] = math.Float64frombits(u64At(row, j*8))
		}
	}
	sums := make([][]float64, w.Clusters)
	counts := make([]int, w.Clusters)
	for c := range sums {
		sums[c] = make([]float64, w.Dims)
	}
	chargeFlops(w.proc, int64(w.Points)*int64(w.Clusters)*int64(w.Dims)*3)
	w.Moved = 0
	assignBuf := make([]byte, 8)
	for i := 0; i < w.Points; i++ {
		if err := readChunk(w.proc, w.points.Add(uint64(i)*rowBytes), row); err != nil {
			return err
		}
		best, bestDist := 0, math.MaxFloat64
		for c := 0; c < w.Clusters; c++ {
			var d2 float64
			for j := 0; j < w.Dims; j++ {
				x := math.Float64frombits(u64At(row, j*8)) - cent[c][j]
				d2 += x * x
			}
			if d2 < bestDist {
				best, bestDist = c, d2
			}
		}
		prev, err := w.proc.ReadU64(w.assignments.Add(uint64(i) * 8))
		if err != nil {
			return err
		}
		if prev != uint64(best)+1 {
			w.Moved++
			putU64(assignBuf, 0, uint64(best)+1)
			if err := writeChunk(w.proc, w.assignments.Add(uint64(i)*8), assignBuf); err != nil {
				return err
			}
		}
		for j := 0; j < w.Dims; j++ {
			sums[best][j] += math.Float64frombits(u64At(row, j*8))
		}
		counts[best]++
	}
	for c := 0; c < w.Clusters; c++ {
		for j := 0; j < w.Dims; j++ {
			v := cent[c][j]
			if counts[c] > 0 {
				v = sums[c][j] / float64(counts[c])
			}
			putU64(row, j*8, math.Float64bits(v))
		}
		if err := writeChunk(w.proc, w.centroids.Add(uint64(c)*rowBytes), row); err != nil {
			return err
		}
	}
	return nil
}

// region is one guest buffer a kernel writes.
type region struct {
	name string
	gva  mem.GVA
	size uint64
}

// writeLog records the virtual time and address of every guest write, so
// the order of reads, writes and flop charges within a Run is compared,
// not just their totals.
type writeLog struct{ recs [][2]int64 }

func attachWriteLog(p *guestos.Process) *writeLog {
	l := &writeLog{}
	k := p.Kernel()
	k.VCPU.AddWriteHook(func(gva mem.GVA) {
		l.recs = append(l.recs, [2]int64{k.Clock.Nanos(), int64(gva)})
	})
	return l
}

// guestState is everything a Run leaves behind that the guest or the
// simulator can observe.
type guestState struct {
	clock    int64
	counters map[string]int64
	writes   [][2]int64
	result   uint64 // PCA Trace bits or KMeans Moved
	bytes    map[string][]byte
}

// captureState reads the state after a Run and empties the write log. The
// clock and counters are taken before the buffers are read back, since
// reading touches them.
func captureState(t *testing.T, p *guestos.Process, log *writeLog, result uint64, regions []region) guestState {
	t.Helper()
	k := p.Kernel()
	st := guestState{clock: k.Clock.Nanos(), counters: k.VCPU.Counters.Snapshot(), writes: log.recs, result: result, bytes: map[string][]byte{}}
	log.recs = nil
	for _, r := range regions {
		b := make([]byte, r.size)
		if err := p.Read(r.gva, b); err != nil {
			t.Fatalf("read %s: %v", r.name, err)
		}
		st.bytes[r.name] = b
	}
	return st
}

// compareStates fails the test on the first difference between the
// oracle's state and the kernel's.
func compareStates(t *testing.T, run int, want, got guestState) {
	t.Helper()
	if got.result != want.result {
		t.Errorf("run %d: result = %#x, oracle %#x", run, got.result, want.result)
	}
	if got.clock != want.clock {
		t.Errorf("run %d: virtual clock = %d ns, oracle %d ns", run, got.clock, want.clock)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Errorf("run %d: vCPU counters = %v, oracle %v", run, got.counters, want.counters)
	}
	if len(got.writes) != len(want.writes) {
		t.Errorf("run %d: %d guest writes, oracle %d", run, len(got.writes), len(want.writes))
	} else {
		for i := range want.writes {
			if got.writes[i] != want.writes[i] {
				t.Errorf("run %d: write %d (ns, gva) = %v, oracle %v", run, i, got.writes[i], want.writes[i])
				break
			}
		}
	}
	for name, wb := range want.bytes {
		if gb := got.bytes[name]; !bytes.Equal(gb, wb) {
			for off := 0; off+8 <= len(wb); off += 8 {
				if !bytes.Equal(gb[off:off+8], wb[off:off+8]) {
					t.Errorf("run %d: %s word %d = %#x, oracle %#x", run, name, off/8, u64At(gb, off), u64At(wb, off))
					break
				}
			}
		}
	}
}

// pcaShapes and kmeansShapes cover the Large configuration (always the
// first shape; skipped under -short, where the race detector makes it
// take tens of seconds) plus the band and row-count edge cases.
func pcaShapes(t *testing.T) [][2]int {
	w, err := New("pca", Large, 1)
	if err != nil {
		t.Fatalf("New(pca): %v", err)
	}
	large := w.(*PCA)
	return [][2]int{
		{large.Rows, large.Cols},
		{64, covBand - 5}, // every row's band spans all columns
		{33, 1},           // a single column
		{257, 2*covBand + 3},
	}
}

func kmeansShapes(t *testing.T) [][3]int {
	w, err := New("kmeans", Large, 1)
	if err != nil {
		t.Fatalf("New(kmeans): %v", err)
	}
	large := w.(*KMeans)
	return [][3]int{
		{large.Points, large.Clusters, large.Dims},
		{301, 5, 1},
		{1023, 7, 3},
	}
}

// TestPCAMatchesReference runs the column-major PCA kernel and the
// row-major oracle side by side on identical guests: every covariance and
// means word, the trace bits, the virtual clock, the vCPU counters and the
// timed sequence of guest writes must agree after each Run.
func TestPCAMatchesReference(t *testing.T) {
	for i, sh := range pcaShapes(t) {
		r, c := sh[0], sh[1]
		t.Run(fmt.Sprintf("%dx%d", r, c), func(t *testing.T) {
			if i == 0 && testing.Short() {
				t.Skip("Large configuration skipped in -short mode")
			}
			ref, fast := NewPCA(r, c), NewPCA(r, c)
			rp, fp := newTestProc(t), newTestProc(t)
			if err := ref.Setup(NewRegionAlloc(rp, false), sim.NewRNG(7)); err != nil {
				t.Fatalf("Setup: %v", err)
			}
			if err := fast.Setup(NewRegionAlloc(fp, false), sim.NewRNG(7)); err != nil {
				t.Fatalf("Setup: %v", err)
			}
			rlog, flog := attachWriteLog(rp), attachWriteLog(fp)
			regions := func(w *PCA) []region {
				return []region{
					{"means", w.means, uint64(c) * 8},
					{"cov", w.cov, uint64(c) * uint64(c) * 8},
				}
			}
			for run := 1; run <= 2; run++ {
				if err := refPCARun(ref); err != nil {
					t.Fatalf("oracle run %d: %v", run, err)
				}
				if err := fast.Run(); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				want := captureState(t, rp, rlog, math.Float64bits(ref.Trace), regions(ref))
				got := captureState(t, fp, flog, math.Float64bits(fast.Trace), regions(fast))
				compareStates(t, run, want, got)
			}
		})
	}
}

// TestKMeansMatchesReference does the same for KMeans over three Lloyd
// iterations, so assignments change between Runs.
func TestKMeansMatchesReference(t *testing.T) {
	for i, sh := range kmeansShapes(t) {
		n, k, d := sh[0], sh[1], sh[2]
		t.Run(fmt.Sprintf("%dx%dx%d", n, k, d), func(t *testing.T) {
			if i == 0 && testing.Short() {
				t.Skip("Large configuration skipped in -short mode")
			}
			ref, fast := NewKMeans(n, k, d), NewKMeans(n, k, d)
			rp, fp := newTestProc(t), newTestProc(t)
			if err := ref.Setup(NewRegionAlloc(rp, false), sim.NewRNG(9)); err != nil {
				t.Fatalf("Setup: %v", err)
			}
			if err := fast.Setup(NewRegionAlloc(fp, false), sim.NewRNG(9)); err != nil {
				t.Fatalf("Setup: %v", err)
			}
			rlog, flog := attachWriteLog(rp), attachWriteLog(fp)
			regions := func(w *KMeans) []region {
				return []region{
					{"centroids", w.centroids, uint64(k) * uint64(d) * 8},
					{"assignments", w.assignments, uint64(n) * 8},
				}
			}
			for run := 1; run <= 3; run++ {
				if err := refKMeansRun(ref); err != nil {
					t.Fatalf("oracle run %d: %v", run, err)
				}
				if err := fast.Run(); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				want := captureState(t, rp, rlog, uint64(ref.Moved), regions(ref))
				got := captureState(t, fp, flog, uint64(fast.Moved), regions(fast))
				compareStates(t, run, want, got)
			}
		})
	}
}

// benchRun times Run of the named workload at its Large configuration.
func benchRun(b *testing.B, name string) {
	w, err := New(name, Large, 1)
	if err != nil {
		b.Fatalf("New(%s): %v", name, err)
	}
	if err := w.Setup(NewRegionAlloc(newTestProc(b), false), sim.NewRNG(1)); err != nil {
		b.Fatalf("Setup: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Run(); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

func BenchmarkPCARun(b *testing.B)    { benchRun(b, "pca") }
func BenchmarkKMeansRun(b *testing.B) { benchRun(b, "kmeans") }
