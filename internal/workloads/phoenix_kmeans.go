package workloads

import (
	"math"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// KMeans is Phoenix's k-means kernel: iteratively assign d-dimensional
// points to the nearest of k centroids and recompute the centroids. Points
// are read-only after setup; each Run (one Lloyd iteration) rewrites the
// assignment vector and the centroid matrix - a moderate, structured dirty
// set over a large read working set (Table III: -d/-c/-p up to 5K).
type KMeans struct {
	Points, Clusters, Dims int

	proc        *guestos.Process
	points      mem.GVA // Points x Dims float64
	centroids   mem.GVA // Clusters x Dims float64
	assignments mem.GVA // Points x u64
	ready       bool

	// Moved reports how many points changed cluster in the last Run.
	Moved int
}

// NewKMeans returns the kernel with n points, k clusters, d dimensions.
func NewKMeans(points, clusters, dims int) *KMeans {
	return &KMeans{Points: points, Clusters: clusters, Dims: dims}
}

// Name implements Workload.
func (w *KMeans) Name() string { return "phoenix/kmeans" }

// Setup implements Workload.
func (w *KMeans) Setup(alloc Allocator, rng *sim.RNG) error {
	w.proc = alloc.Proc()
	var err error
	rowBytes := uint64(w.Dims) * 8
	if w.points, err = alloc.Alloc(uint64(w.Points) * rowBytes); err != nil {
		return err
	}
	if w.centroids, err = alloc.Alloc(uint64(w.Clusters) * rowBytes); err != nil {
		return err
	}
	if w.assignments, err = alloc.Alloc(uint64(w.Points) * 8); err != nil {
		return err
	}
	// Random points in [0,1)^d; first k points seed the centroids.
	row := make([]byte, rowBytes)
	for i := 0; i < w.Points; i++ {
		for j := 0; j < w.Dims; j++ {
			putU64(row, j*8, math.Float64bits(rng.Float64()))
		}
		if err := writeChunk(w.proc, w.points.Add(uint64(i)*rowBytes), row); err != nil {
			return err
		}
		if i < w.Clusters {
			if err := writeChunk(w.proc, w.centroids.Add(uint64(i)*rowBytes), row); err != nil {
				return err
			}
		}
	}
	w.ready = true
	return nil
}

// Run implements Workload: one Lloyd iteration.
func (w *KMeans) Run() error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	rowBytes := uint64(w.Dims) * 8
	// Load centroids.
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

	// Assignment pass.
	chargeFlops(w.proc, int64(w.Points)*int64(w.Clusters)*int64(w.Dims)*3)
	w.Moved = 0
	assignBuf := make([]byte, 8)
	pt := make([]float64, w.Dims)
	for i := 0; i < w.Points; i++ {
		if err := readChunk(w.proc, w.points.Add(uint64(i)*rowBytes), row); err != nil {
			return err
		}
		for j := range pt {
			pt[j] = math.Float64frombits(u64At(row, j*8))
		}
		best, bestDist := 0, math.MaxFloat64
		for c, cc := range cent {
			cc = cc[:len(pt)]
			var d2 float64
			for j, p := range pt {
				x := p - cc[j]
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
		sum := sums[best][:len(pt)]
		for j, p := range pt {
			sum[j] += p
		}
		counts[best]++
	}

	// Update pass: rewrite every centroid.
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

// WorkingSet implements Workload.
func (w *KMeans) WorkingSet() uint64 {
	return uint64(w.Points)*uint64(w.Dims)*8 + uint64(w.Clusters)*uint64(w.Dims)*8 + uint64(w.Points)*8
}
