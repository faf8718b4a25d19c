package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of sorted by
// nearest rank; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads this program reports match the ones an external check
// computes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapWatch averages the live heap over the garbage collections that
// end while it runs: a finalizer on a throwaway object runs once per
// collection and re-arms itself until stop is set. The mean, unlike the
// peak, does not depend on which instant a collection happened to
// sample.
type heapWatch struct {
	mu    sync.Mutex
	sum   float64
	n     int
	stop  bool
	probe []metrics.Sample
}

func watchHeap() *heapWatch {
	h := &heapWatch{probe: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(new([16]byte), func(*[16]byte) {
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.stop {
			return
		}
		metrics.Read(h.probe)
		h.sum += float64(h.probe[0].Value.Uint64())
		h.n++
		h.arm()
	})
}

// done stops the watch and returns the mean live heap in megabytes.
func (h *heapWatch) done() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stop = true
	return ratio(h.sum/1e6, float64(h.n))
}
