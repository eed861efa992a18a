// Command perfbench is the repository's end-to-end benchmark. It
// generates one of four seeded entity-resolution workloads with
// internal/datagen, writes it as CSV files, and runs it as a closed loop
// with one client: each job loads the files, parses the rules, resolves
// the dataset through the public dcer API and writes the canonical Γ.
// Every job's Γ is checked against a reference computed once per seed by
// a sequential Match, keyed by (relation, id).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload tpch-seq --seed 1 --seconds 10 --trace 0
//
// The report goes to standard output; its last line is one JSON object
// with the keys correct, attempted, failed and metrics. --trace 0 reports
// the end-to-end metrics, with timings in calibration units (see
// calibrate.go); --trace 1 alternates untraced and traced jobs and reports
// the per-layer metrics, the self time of each layer, and the tracing
// overhead.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcer"
)

// Limits that keep one run under three minutes.
const (
	minRounds = 2                 // fewest jobs per dataset, even if --seconds ran out
	runLimit  = 170 * time.Second // the watchdog reports and exits here
)

func main() {
	workload := flag.String("workload", "", "workload name: tpch-seq, tpch-par2, tpch-dist2 or movie-stream")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced jobs")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	workerAddr := flag.String("worker-addr", "", "internal: serve as a distributed worker of this master")
	workerID := flag.Int("worker-id", -1, "internal: worker slot")
	dir := flag.String("dir", "", "internal: input directory of a worker")
	flag.Parse()

	if *workerAddr != "" {
		if err := workerMain(*workerAddr, *workerID, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*workload)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workerMain is one worker process of tpch-dist2: it loads the same files
// the master loaded and serves supersteps until the master is done.
func workerMain(addr string, id int, dir string) error {
	d, err := dcer.LoadDir(filepath.Join(dir, dataSub))
	if err != nil {
		return err
	}
	rules, err := parseRules(dir, d)
	if err != nil {
		return err
	}
	return dcer.MatchWorker(addr, d, rules, dcer.DefaultClassifiers(), dcer.DistributedWorkerOptions{Worker: id})
}

// outcome is the run's tally, shared with the watchdog.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	done      bool
}

// record counts one job; err is its failure (error or Γ mismatch).
func (o *outcome) record(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		fmt.Printf("job %d FAILED: %v\n", o.attempted, err)
	}
}

func run(w workload, seed int64, measure time.Duration, traced bool, root string) error {
	start := time.Now()
	work := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{w: w, cal: newCalibrator()}
	if e.exe, err = os.Executable(); err != nil {
		return err
	}
	// The host's speed before any program code has run, for comparison
	// with the calibrations of the timed loop.
	var clean []float64
	for range 10 {
		clean = append(clean, e.cal.run().Seconds())
	}
	for k := 0; k < w.datasets; k++ {
		ds := &dataset{dir: filepath.Join(dir, strconv.Itoa(k)), seed: seed*int64(w.datasets) + int64(k)}
		if err := writeInputs(ds.dir, w.kind, ds.seed, w.scale, w.mode == modeStream); err != nil {
			return fmt.Errorf("generating inputs: %w", err)
		}
		if err := prepare(ds, w, traced); err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		e.datasets = append(e.datasets, ds)
	}

	out := &outcome{}
	watchdog := time.AfterFunc(runLimit-time.Since(start), func() {
		out.mu.Lock()
		defer out.mu.Unlock()
		if out.done {
			return
		}
		e.killAll()
		fmt.Printf("job %d FAILED: run exceeded %v\n", out.attempted+1, runLimit)
		emit(false, out.attempted+1, out.failed+1, nil, nil)
		os.RemoveAll(dir)
		os.Exit(0)
	})
	defer watchdog.Stop()

	header(e, seed, traced, time.Since(start), median(clean))
	// Jobs visit the datasets in rounds, one job each, and the loop stops
	// only between rounds; a traced run alternates untraced and traced
	// rounds, so every dataset gets both.
	var jobs []*job
	steal0, total0 := hostSteal()
	loop := time.Now()
	for i := 0; i%w.datasets != 0 || i < minRounds*w.datasets || time.Since(loop) < measure; i++ {
		di := i % w.datasets
		j, err := runJob(e, di, traced && (i/w.datasets)%2 == 1)
		if err == nil {
			err = checkGamma(j.canon, e.datasets[di].ref)
		}
		out.record(err)
		if err != nil {
			continue
		}
		jobs = append(jobs, j)
		printJob(out.attempted, j)
	}
	steal1, total1 := hostSteal()
	out.mu.Lock()
	defer out.mu.Unlock()
	out.done = true
	fmt.Printf("host: %.1f%% of CPU time stolen by the hypervisor during the timed loop\n",
		100*ratio(float64(steal1-steal0), float64(total1-total0)))
	var metrics map[string]float64
	defs := endToEnd
	if traced {
		metrics, defs = layerMetrics(e, jobs), perLayer
	} else {
		metrics = endToEndMetrics(e, jobs)
	}
	if metrics == nil {
		emit(false, out.attempted, out.failed, nil, nil)
		return nil
	}
	summary(e, jobs, metrics, defs)
	emit(out.failed == 0, out.attempted, out.failed, metrics, defs)
	return nil
}

// prepare measures one dataset's inputs and computes its reference Γ
// with a sequential Match over every tuple, the held-back stream rows
// included.
func prepare(ds *dataset, w workload, traced bool) error {
	err := filepath.WalkDir(ds.dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".csv") || filepath.Base(path) == truthFile {
			return err
		}
		info, err := de.Info()
		if err == nil {
			ds.inputBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	if ds.truth, err = readTruth(filepath.Join(ds.dir, truthFile)); err != nil {
		return err
	}
	d, err := dcer.LoadDir(filepath.Join(ds.dir, dataSub))
	if err != nil {
		return err
	}
	if w.mode == modeStream {
		delta, err := dcer.LoadDir(filepath.Join(ds.dir, deltaSub))
		if err != nil {
			return err
		}
		for _, t := range delta.Tuples() {
			if _, err := d.Append(delta.SchemaOf(t).Name, t.Values()...); err != nil {
				return err
			}
		}
	}
	rules, err := parseRules(ds.dir, d)
	if err != nil {
		return err
	}
	keys := make(map[string]bool, d.Size())
	for _, t := range d.Tuples() {
		keys[tupleKey(d, t.GID)] = true
	}
	if len(keys) != d.Size() {
		return errors.New("generated ids are not unique within their relations; Γ cannot be keyed by (relation, id)")
	}
	ds.tuples = d.Size()
	t0 := time.Now()
	eng, err := dcer.Match(d, rules, dcer.DefaultClassifiers())
	if err != nil {
		return err
	}
	ds.refMatch = time.Since(t0)
	ds.ref = canonicalGamma(d, eng.Classes(), eng.Gamma().Validated)
	if traced {
		ds.nsPerCall, err = classifierNs(d, rules, dcer.DefaultClassifiers(), ds.seed)
	}
	return err
}

// aggregate reduces one value over a run's jobs: the median over each
// dataset's jobs, averaged over the datasets. ok is false when some
// dataset has no job to take a median of.
func aggregate(e *env, jobs []*job, name string) (v float64, ok bool) {
	per := make([][]float64, len(e.datasets))
	for _, j := range jobs {
		per[j.ds] = append(per[j.ds], j.vals[name])
	}
	for _, xs := range per {
		if len(xs) == 0 {
			return 0, false
		}
		v += median(xs)
	}
	return v / float64(len(per)), true
}

// endToEndMetrics reduces the untraced jobs to the end-to-end metrics:
// the match, total and CPU times divided by the run's calibration unit;
// setup_s stays in seconds. Precision and recall pool the predicted and
// true pairs of every dataset's (checked) Γ.
func endToEndMetrics(e *env, jobs []*job) map[string]float64 {
	m := make(map[string]float64)
	for _, name := range []string{"setup_s", "match_s", "total_s", "cpu_s", "peak_rss_mb"} {
		v, ok := aggregate(e, jobs, name)
		if !ok {
			return nil
		}
		m[name] = v
	}
	cu := medianCal(jobs).Seconds()
	for _, name := range []string{"match", "total", "cpu"} {
		m[name+"_cu"] = m[name+"_s"] / cu
	}
	var acc counts
	for _, ds := range e.datasets {
		acc = acc.add(accuracy(ds.ref, ds.truth))
	}
	m["precision"], m["recall"] = acc.precision(), acc.recall()
	return m
}

// layerMetrics reduces the traced jobs to the per-layer metrics. The
// tracing overhead is the traced jobs' total_s minus the untraced ones'.
func layerMetrics(e *env, jobs []*job) map[string]float64 {
	var traced, plain []*job
	for _, j := range jobs {
		if j.traced {
			traced = append(traced, j)
		} else {
			plain = append(plain, j)
		}
	}
	m := make(map[string]float64)
	for _, def := range perLayer {
		v, ok := aggregate(e, traced, def.name)
		if !ok {
			return nil
		}
		m[def.name] = v
	}
	t, ok1 := aggregate(e, traced, "total_s")
	p, ok2 := aggregate(e, plain, "total_s")
	if !ok1 || !ok2 {
		return nil
	}
	m["trace.overhead_s"] = t - p
	return m
}

// emit prints the result line: the last line of standard output.
func emit(correct bool, attempted, failed int, metrics map[string]float64, defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{metrics[d.name], d.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, attempted, failed, ms})
	fmt.Println(string(b))
}

// header prints what the run measured on: the host's parallelism, the
// seed, and per dataset its size and the reference Γ's digest (equal
// across the three TPCH workloads for one seed).
func header(e *env, seed int64, traced bool, prep time.Duration, clean float64) {
	fmt.Printf("perfbench workload=%s seed=%d trace=%v GOMAXPROCS=%d NumCPU=%d %s %s/%s\n",
		e.w.name, seed, traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("inputs: %d %s datasets at scale %g, prepared in %.2fs; peak RSS reset per job: %v\n",
		len(e.datasets), e.w.kind, e.w.scale, prep.Seconds(), resetPeakRSS())
	fmt.Printf("calibration before any job: median %.3f ms over 10\n", clean*1e3)
	for k, ds := range e.datasets {
		fmt.Printf("dataset %d: generator seed %d, %d tuples, %.1f MB of CSV, %d truth pairs; reference Γ (sequential Match %.3fs) %d lines, sha256 %x\n",
			k, ds.seed, ds.tuples, float64(ds.inputBytes)/1e6, len(ds.truth), ds.refMatch.Seconds(),
			strings.Count(string(ds.ref), "\n"), sha256.Sum256(ds.ref))
	}
	fmt.Println("job  ds  traced  cal_ms  setup_s  match_s  insert_s  total_s   cpu_s  rss_mb  steps  rebal  recov  per-process cpu_s/rss_mb")
}

// printJob prints one job's row, so a bimodal run (a skew rebalance
// adding a superstep) is attributable from the report.
func printJob(n int, j *job) {
	var procs []string
	for _, p := range j.procs {
		procs = append(procs, fmt.Sprintf("%s %.3f/%.1f", p.name, p.cpu.Seconds(), float64(p.rssKB)/1024))
	}
	fmt.Printf("%3d  %2d  %-6v  %6.2f  %7.4f  %7.4f  %8.4f  %7.4f  %6.3f  %6.1f  %5d  %5d  %5d  %s\n",
		n, j.ds, j.traced, float64(j.cal.Nanoseconds())/1e6, j.setup.Seconds(), j.match.Seconds(), j.insert.Seconds(), j.total.Seconds(),
		j.cpu().Seconds(), j.rssMB(), j.supersteps, j.rebalances, j.recoveries, strings.Join(procs, ", "))
}

// summary prints each timing's median, quartiles and tail percentile
// over all jobs with the sample count, the calibrations and the insert
// latencies the same way, the derived speedup, and every metric by name
// and unit.
func summary(e *env, jobs []*job, metrics map[string]float64, defs []metricDef) {
	dist := func(name string, xs []float64, unit string) {
		line := fmt.Sprintf("%-12s median %.4f %s  q1 %.4f  q3 %.4f  n=%d", name, median(xs), unit,
			percentile(xs, 25), percentile(xs, 75), len(xs))
		if p, ok := tailPercentile(len(xs)); ok {
			line += fmt.Sprintf("  p%d %.4f", p, percentile(xs, p))
		} else {
			line += "  (no percentile has ten samples beyond it)"
		}
		fmt.Println(line)
	}
	for _, name := range []string{"setup_s", "match_s", "total_s"} {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = j.vals[name]
		}
		dist(name, xs, "s")
	}
	cals := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		cals[i] = j.cal
	}
	dist("calibration", millis(cals), "ms")
	fmt.Printf("calibration unit: 1 cu = %.3f ms, the median calibration of the timed loop\n", medianCal(jobs).Seconds()*1e3)
	var inserts []time.Duration
	for _, j := range jobs {
		inserts = append(inserts, j.inserts...)
	}
	if len(inserts) > 0 {
		dist("insert batch", millis(inserts), "ms")
	}
	if e.w.mode == modePar || e.w.mode == modeDist {
		var seq float64
		for _, ds := range e.datasets {
			seq += ds.refMatch.Seconds() / float64(len(e.datasets))
		}
		par, _ := aggregate(e, jobs, "match_s")
		ceiling, _ := aggregate(e, jobs, "hypart.speedup_ceiling")
		fmt.Printf("speedup: sequential match_s %.4f (reference runs) / %s match_s %.4f = %.3f; hypart.speedup_ceiling %.3f\n",
			seq, e.w.name, par, seq/par, ceiling)
	}
	for _, d := range defs {
		line := fmt.Sprintf("metric %-32s %14.6g %-6s", d.name, metrics[d.name], d.unit)
		if d.moves != "" {
			line += "  -> " + d.moves
		}
		fmt.Println(line)
	}
}

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e6
	}
	return xs
}
