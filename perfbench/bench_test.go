package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcer"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, p int
		ok   bool
	}{
		{0, 0, false}, {10, 0, false}, {11, 9, true}, {20, 50, true},
		{100, 90, true}, {171, 94, true}, {1000, 99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok {
			xs := make([]float64, c.n)
			beyond := 0
			for i := range xs {
				xs[i] = float64(i)
			}
			for _, x := range xs {
				if x > percentile(xs, p) {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: p%d leaves %d samples beyond it, want >= 10", c.n, p, beyond)
			}
		}
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Errorf("p90 = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "job", layer: "root", start: 0, end: 10 * ms, parent: -1},
		// Children overlap ([1,3] and [2,5] cover [1,5] once) and one
		// reaches past the parent's end, which does not count.
		{name: "a", layer: "x", start: 1 * ms, end: 3 * ms, parent: 0},
		{name: "b", layer: "x", start: 2 * ms, end: 5 * ms, parent: 0},
		{name: "c", layer: "y", start: 8 * ms, end: 12 * ms, parent: 0},
		{name: "b1", layer: "z", start: 3 * ms, end: 4 * ms, parent: 2},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 10*ms - 4*ms - 2*ms,  // minus [1,5] and [8,10]
		"x":    2*ms + (3*ms - 1*ms), // a, plus b minus b1
		"y":    4 * ms,
		"z":    1 * ms,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("self time of %s = %v, want %v", l, got[l], w)
		}
	}
}

// smallDataset builds relation P with one tuple per id, in the given order.
func smallDataset(t *testing.T, ids ...string) *dcer.Dataset {
	t.Helper()
	db := dcer.MustDatabase(dcer.MustSchema("P", "pid", dcer.Attr("pid", dcer.TypeString)))
	d := dcer.NewDataset(db)
	for _, id := range ids {
		d.MustAppend("P", dcer.S(id))
	}
	return d
}

func TestGammaCheck(t *testing.T) {
	// The same classes under different tuple ids render identically.
	d1 := smallDataset(t, "a", "b", "c", "d")
	d2 := smallDataset(t, "d", "c", "b", "a")
	ref := canonicalGamma(d1, [][]dcer.TID{{0, 1}, {2, 3}}, nil)
	same := canonicalGamma(d2, [][]dcer.TID{{2, 3}, {1, 0}}, nil)
	if err := checkGamma(same, ref); err != nil {
		t.Fatalf("Γ under renumbered ids rejected: %v", err)
	}

	// A perturbed Γ (one member moved to the other class) counts as a
	// failed job.
	perturbed := canonicalGamma(d1, [][]dcer.TID{{0, 1, 2}}, nil)
	out := &outcome{}
	out.record(checkGamma(same, ref))
	out.record(checkGamma(perturbed, ref))
	if out.attempted != 2 || out.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", out.attempted, out.failed)
	}
	if err := checkGamma(ref[:len(ref)-2], ref); err == nil {
		t.Fatal("truncated Γ accepted")
	}
}

func TestAccuracy(t *testing.T) {
	canon := []byte("P:a P:b P:c\nP:d P:e\n")
	truth := map[[2]string]bool{pairKey("P:b", "P:a"): true, pairKey("P:d", "P:e"): true, pairKey("P:x", "P:y"): true}
	c := accuracy(canon, truth)
	if c.tp != 2 || c.predicted != 4 || c.truth != 3 {
		t.Fatalf("counts = %+v, want tp 2, predicted 4, truth 3", c)
	}
	if c.precision() != 0.5 {
		t.Errorf("precision = %v, want 0.5", c.precision())
	}
}

// readTree maps each file under dir to its bytes.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, c := range []struct {
		kind   string
		stream bool
	}{{"tpch", false}, {"movie", true}} {
		var trees []map[string][]byte
		for _, seed := range []int64{7, 7, 8} {
			dir := t.TempDir()
			if err := writeInputs(dir, c.kind, seed, 0.1, c.stream); err != nil {
				t.Fatal(err)
			}
			trees = append(trees, readTree(t, dir))
		}
		if len(trees[0]) == 0 || len(trees[0]) != len(trees[1]) {
			t.Fatalf("%s: %d and %d files", c.kind, len(trees[0]), len(trees[1]))
		}
		for name, b := range trees[0] {
			if !bytes.Equal(b, trees[1][name]) {
				t.Errorf("%s: %s differs between two generations with the same seed", c.kind, name)
			}
		}
		if bytes.Equal(trees[0][truthFile], trees[2][truthFile]) {
			t.Errorf("%s: seeds 7 and 8 generated the same truth", c.kind)
		}
		if _, ok := trees[0][filepath.Join(dataSub, truthFile)]; ok {
			t.Errorf("%s: truth is inside the loaded data directory", c.kind)
		}
	}
}

// TestJobsMatchReference runs one job of every in-process mode on a tiny
// dataset and checks its Γ against the sequential reference.
func TestJobsMatchReference(t *testing.T) {
	for _, w := range []workload{
		{name: "seq", kind: "tpch", scale: 0.1, datasets: 1, mode: modeSeq, workers: 1},
		{name: "par", kind: "tpch", scale: 0.1, datasets: 1, mode: modePar, workers: 2},
		{name: "stream", kind: "movie", scale: 0.2, datasets: 1, mode: modeStream, workers: 1},
	} {
		ds := &dataset{dir: t.TempDir(), seed: 3}
		if err := writeInputs(ds.dir, w.kind, ds.seed, w.scale, w.mode == modeStream); err != nil {
			t.Fatal(err)
		}
		if err := prepare(ds, w, false); err != nil {
			t.Fatal(err)
		}
		e := &env{w: w, datasets: []*dataset{ds}, cal: newCalibrator()}
		for _, traced := range []bool{false, true} {
			j, err := runJob(e, 0, traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := checkGamma(j.canon, ds.ref); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			if j.total < j.setup+j.match || j.vals["total_s"] <= 0 {
				t.Errorf("%s: total %v < setup %v + match %v", w.name, j.total, j.setup, j.match)
			}
			if j.cal <= 0 || j.vals["host.cu_s"] != j.cal.Seconds() {
				t.Errorf("%s: job has no calibration", w.name)
			}
			if traced && j.vals["self.relation_s"] <= 0 {
				t.Errorf("%s: traced job has no relation self time", w.name)
			}
		}
		if w.mode == modeStream && !strings.Contains(string(ds.ref), "movie:") {
			t.Errorf("stream reference Γ has no movie matches")
		}
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", c.name, len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			d := c.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %v, the program reports %s %s %s", c.name, i, m, d.name, d.unit, d.better)
			}
		}
	}
}

// A calibration reuses its maps and slices and allocates only the
// goroutines that run it, so its time does not depend on the program's
// heap.
func TestCalibrationReusesItsWorkingSet(t *testing.T) {
	c := newCalibrator()
	c.run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 3 {
		c.run()
	}
	runtime.ReadMemStats(&after)
	// One lane's map alone is megabytes; goroutines are a few hundred bytes.
	if b := (after.TotalAlloc - before.TotalAlloc) / 3; b > 16<<10 {
		t.Errorf("a calibration allocated %d bytes", b)
	}
}

func TestEndToEndMetricsInCalibrationUnits(t *testing.T) {
	e := &env{datasets: []*dataset{{}, {}}}
	var jobs []*job
	for i, c := range []struct {
		ds         int
		cal, match float64
	}{{0, 0.010, 0.2}, {0, 0.020, 0.4}, {1, 0.030, 0.6}, {1, 0.020, 0.8}} {
		jobs = append(jobs, &job{ds: c.ds, cal: time.Duration(c.cal * 1e9), vals: map[string]float64{
			"setup_s": 0.1, "match_s": c.match, "total_s": 2 * c.match, "cpu_s": 1, "peak_rss_mb": float64(i),
		}})
	}
	m := endToEndMetrics(e, jobs)
	// Per-dataset medians 0.3 and 0.7 average to 0.5 s; the median
	// calibration is 0.02 s.
	if got := m["match_cu"]; math.Abs(got-25) > 1e-9 {
		t.Errorf("match_cu = %v, want 25", got)
	}
	if got := m["total_cu"]; math.Abs(got-50) > 1e-9 {
		t.Errorf("total_cu = %v, want 50", got)
	}
	if got := m["setup_s"]; math.Abs(got-0.1) > 1e-9 {
		t.Errorf("setup_s = %v, want 0.1 (seconds, not cu)", got)
	}
}
