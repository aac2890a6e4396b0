package workloads

import (
	"math"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// PCA is Phoenix's principal component analysis kernel: compute the mean
// vector and the covariance matrix of an r x c data matrix. The paper's
// CRIU experiment finds pca the worst-case tracked app (102 % overhead
// under /proc, 114 % under SPML, 7 % under EPML): its covariance writes
// touch a c x c output that is large relative to its runtime.
type PCA struct {
	Rows, Cols int

	proc  *guestos.Process
	data  mem.GVA // Rows x Cols float64
	means mem.GVA // Cols float64
	cov   mem.GVA // Cols x Cols float64
	ready bool

	// cols is the host copy of the data matrix, column-major
	// (cols[j*Rows+i]), kept across Runs so pre-copy rounds reuse it.
	cols []float64

	// Trace is the covariance trace after the last Run (verification).
	Trace float64
}

// NewPCA returns the kernel for an r x c matrix (Table III: -r/-c up to 10K,
// -s 200 sampled covariance columns; we compute a banded covariance to keep
// the same write pattern at tractable cost).
func NewPCA(rows, cols int) *PCA { return &PCA{Rows: rows, Cols: cols} }

// Name implements Workload.
func (w *PCA) Name() string { return "phoenix/pca" }

// Setup implements Workload.
func (w *PCA) Setup(alloc Allocator, rng *sim.RNG) error {
	w.proc = alloc.Proc()
	var err error
	if w.data, err = alloc.Alloc(uint64(w.Rows) * uint64(w.Cols) * 8); err != nil {
		return err
	}
	if w.means, err = alloc.Alloc(uint64(w.Cols) * 8); err != nil {
		return err
	}
	if w.cov, err = alloc.Alloc(uint64(w.Cols) * uint64(w.Cols) * 8); err != nil {
		return err
	}
	row := make([]byte, w.Cols*8)
	for i := 0; i < w.Rows; i++ {
		for j := 0; j < w.Cols; j++ {
			putU64(row, j*8, math.Float64bits(rng.Float64()*2-1))
		}
		if err := writeChunk(w.proc, w.data.Add(uint64(i)*uint64(w.Cols)*8), row); err != nil {
			return err
		}
	}
	w.ready = true
	return nil
}

// covBand bounds how far off the diagonal covariance entries are computed;
// Phoenix's -s parameter similarly subsamples the covariance computation.
const covBand = 16

// Run implements Workload: means pass, then banded covariance pass writing
// every covariance row.
//
// The host side works on columns: each covariance entry is a contiguous
// dot product of two centred columns, summed over rows in row order, and
// the entry below the diagonal reuses its mirror (floating-point products
// commute exactly). Every guest access, flop charge and written word is
// the same as for the row-major textbook loop.
func (w *PCA) Run() error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	r, c := w.Rows, w.Cols
	rowBytes := uint64(c) * 8
	if len(w.cols) != r*c {
		w.cols = make([]float64, r*c)
	}
	cols := w.cols
	row := make([]byte, rowBytes)
	for i := 0; i < r; i++ {
		if err := readChunk(w.proc, w.data.Add(uint64(i)*rowBytes), row); err != nil {
			return err
		}
		for j := 0; j < c; j++ {
			cols[j*r+i] = math.Float64frombits(u64At(row, j*8))
		}
	}
	// Mean vector, then centre each column.
	out := make([]byte, rowBytes)
	for j := 0; j < c; j++ {
		col := cols[j*r : j*r+r]
		var m float64
		for _, x := range col {
			m += x
		}
		m /= float64(r)
		for i := range col {
			col[i] -= m
		}
		putU64(out, j*8, math.Float64bits(m))
	}
	if err := writeChunk(w.proc, w.means, out); err != nil {
		return err
	}
	// Banded covariance, one written row per column. band[j*(covBand+1)+d]
	// holds entry (j, j+d).
	chargeFlops(w.proc, int64(r)*int64(c)+int64(r)*int64(c)*(2*covBand+1)*3)
	const bw = covBand + 1
	band := make([]float64, c*bw)
	for j := 0; j < c; j++ {
		a := cols[j*r : j*r+r]
		for k := j; k <= min(j+covBand, c-1); k++ {
			b := cols[k*r : k*r+r]
			var s float64
			for i, x := range a {
				s += x * b[i]
			}
			band[j*bw+k-j] = s / float64(r-1)
		}
	}
	w.Trace = 0
	for j := 0; j < c; j++ {
		clear(out)
		lo, hi := max(j-covBand, 0), min(j+covBand, c-1)
		for k := lo; k <= hi; k++ {
			var s float64
			if k >= j {
				s = band[j*bw+k-j]
			} else {
				s = band[k*bw+j-k]
			}
			putU64(out, k*8, math.Float64bits(s))
		}
		w.Trace += band[j*bw]
		if err := writeChunk(w.proc, w.cov.Add(uint64(j)*rowBytes), out); err != nil {
			return err
		}
	}
	return nil
}

// WorkingSet implements Workload.
func (w *PCA) WorkingSet() uint64 {
	return uint64(w.Rows)*uint64(w.Cols)*8 + uint64(w.Cols)*8 + uint64(w.Cols)*uint64(w.Cols)*8
}
