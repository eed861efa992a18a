package main

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed drifts by 10-20%
// over minutes, which a fixed loop of map inserts shows as clearly as the
// program does. A run therefore measures the host next to the program: a
// fixed computation, independent of the program under test, runs right
// before every job, and the run's calibration unit (cu) is the median of
// those times. The end-to-end timings are reported as multiples of it
// (match_cu, total_cu, cpu_cu), so a run on a slow stretch of the host and
// one on a fast stretch give the same figure for the same program, while
// a slower program still shows at full size. The seconds behind each
// figure stay in the report and in host.cu_s.

// Work of one calibration goroutine: about 15 ms on a 2-CPU Xeon VM.
const (
	calKeys   = 60000 // map inserts and lookups
	calSorted = 20000 // strings sorted
)

// calibrator runs the fixed computation on one goroutine per CPU the
// program may use (GOMAXPROCS), all at once, and takes the mean of their
// own times. The wall time of the slowest goroutine instead over-reacted
// to a burst of hypervisor steal on either CPU and widened the run-to-run
// spread; a single goroutine followed the two-CPU workloads less closely
// (tpch-dist2 match spread 5.9% against 2.3% over the same five seeds).
// The maps and slices are allocated once and reused, so a calibration
// allocates only its goroutines and its time does not depend on the state
// of the program's heap.
type calibrator struct {
	keys  []string
	lanes []calLane
	took  []time.Duration
}

// calLane is the working set of one goroutine.
type calLane struct {
	m      map[string]int
	sorted []string
}

func newCalibrator() *calibrator {
	n := runtime.GOMAXPROCS(0)
	c := &calibrator{keys: make([]string, calKeys), took: make([]time.Duration, n)}
	for i := range c.keys {
		c.keys[i] = "customer#" + strconv.Itoa(i*7919%1000003) + "/orders"
	}
	for range n {
		c.lanes = append(c.lanes, calLane{m: make(map[string]int, calKeys+1), sorted: make([]string, calSorted)})
	}
	return c
}

// run times one calibration.
func (c *calibrator) run() time.Duration {
	var wg sync.WaitGroup
	for i := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.took[i] = c.lanes[i].work(c.keys)
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range c.took {
		sum += d
	}
	return sum / time.Duration(len(c.took))
}

// work does the fixed computation once and returns how long it took.
func (l calLane) work(keys []string) time.Duration {
	t0 := time.Now()
	clear(l.m)
	for i, k := range keys {
		l.m[k] = i
	}
	sum := 0
	for _, k := range keys {
		sum += l.m[k]
	}
	l.m[""] = sum // keeps the lookups from being optimised away
	copy(l.sorted, keys)
	slices.Sort(l.sorted)
	return time.Since(t0)
}

// medianCal is the median calibration of a run's jobs: its cu.
func medianCal(jobs []*job) time.Duration {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = float64(j.cal)
	}
	return time.Duration(median(xs))
}
