package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcer"
	"dcer/internal/chase"
)

// mode is how a workload resolves its dataset.
type mode int

const (
	modeSeq    mode = iota // sequential Match (NewEngine + Deduce)
	modePar                // in-process DMatch (MatchParallel)
	modeDist               // DMatch with worker processes over TCP (MatchDistributed)
	modeStream             // sequential Match over the base, then InsertTuples batches
)

// workload is one set of inputs and the way the program resolves them.
// Why each was chosen is recorded in BENCHMARK.json.
type workload struct {
	name     string
	kind     string // datagen generator: "tpch" or "movie"
	scale    float64
	datasets int // datasets generated per run, each from its own sub-seed
	mode     mode
	workers  int
}

var workloads = []workload{
	{name: "tpch-seq", kind: "tpch", scale: tpchScale, datasets: tpchDatasets, mode: modeSeq, workers: 1},
	{name: "tpch-par2", kind: "tpch", scale: tpchScale, datasets: tpchDatasets, mode: modePar, workers: 2},
	{name: "tpch-dist2", kind: "tpch", scale: tpchScale, datasets: tpchDatasets, mode: modeDist, workers: 2},
	{name: "movie-stream", kind: "movie", scale: movieScale, datasets: movieDatasets, mode: modeStream, workers: 1},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dataset is one generated input of a run with its reference Γ and
// answer key, prepared before any timed job.
type dataset struct {
	dir        string
	seed       int64  // generator seed
	ref        []byte // canonical Γ of a sequential Match over all its tuples
	truth      map[[2]string]bool
	tuples     int
	inputBytes int64
	refMatch   time.Duration // match time of the reference run
	nsPerCall  float64       // classifier cost, measured for traced runs
}

// env is one benchmark run: the workload, its datasets, and the worker
// processes alive at any moment.
type env struct {
	w        workload
	datasets []*dataset
	exe      string // this binary, re-executed as the distributed workers
	cal      *calibrator

	mu    sync.Mutex
	procs []*exec.Cmd // live worker processes, killed by the watchdog
}

// procUsage is the CPU time and peak RSS of one process of a job.
type procUsage struct {
	name  string
	cpu   time.Duration
	rssKB int64
}

// job is the outcome of one closed-loop request: load one dataset,
// resolve it, write its Γ.
type job struct {
	ds     int // index into env.datasets
	traced bool
	cal    time.Duration // the calibration run right before the job

	setup, match, insert, output, total time.Duration

	procs   []procUsage // master first, then each worker process
	inserts []time.Duration
	canon   []byte

	supersteps, rebalances, recoveries int

	// vals holds the job's end-to-end values and its per-layer values;
	// traced jobs add self times and Go runtime figures.
	vals map[string]float64
}

func (j *job) cpu() (sum time.Duration) {
	for _, p := range j.procs {
		sum += p.cpu
	}
	return sum
}

func (j *job) rssMB() float64 {
	var kb int64
	for _, p := range j.procs {
		kb += p.rssKB
	}
	return float64(kb) / 1024
}

// runJob runs one job end to end and reads the stats the public calls
// return. A traced job also records a span around every public call, the
// Go runtime's allocation and GC counts, and each layer's self time.
func runJob(e *env, di int, traced bool) (*job, error) {
	ds := e.datasets[di]
	var tr *tracer
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	resetPeakRSS()
	cal := e.cal.run()
	cpu0 := selfCPU()
	t0 := time.Now()
	if traced {
		tr = &tracer{t0: t0}
	}
	j := &job{ds: di, traced: traced, cal: cal}
	root := tr.begin("job", "unattributed", -1)

	sp := tr.begin("load", "relation", root)
	d, err := dcer.LoadDir(filepath.Join(ds.dir, dataSub))
	if err != nil {
		return nil, err
	}
	var delta *dcer.Dataset
	var order []string
	if e.w.mode == modeStream {
		if delta, err = dcer.LoadDir(filepath.Join(ds.dir, deltaSub)); err != nil {
			return nil, err
		}
		b, err := os.ReadFile(filepath.Join(ds.dir, streamTxt))
		if err != nil {
			return nil, err
		}
		order = strings.Fields(string(b))
	}
	tr.end(sp)
	load := time.Since(t0)
	sp = tr.begin("parse", "rule", root)
	rules, err := parseRules(ds.dir, d)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	j.setup = time.Since(t0)
	reg := dcer.DefaultClassifiers()

	layer := map[string]float64{}
	var classes func() [][]dcer.TID
	var validated []dcer.Fact
	switch e.w.mode {
	case modeSeq, modeStream:
		sp = tr.begin("chase.New", "chase", root)
		eng, err := dcer.NewEngine(d, rules, reg, dcer.EngineOptions{ShareIndexes: true})
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		build := time.Since(t0) - j.setup
		sp = tr.begin("Deduce", "chase", root)
		eng.Deduce()
		tr.end(sp)
		j.match = time.Since(t0) - j.setup
		layer["chase.build_s"] = build.Seconds()
		layer["chase.deduce_s"] = (j.match - build).Seconds()
		if e.w.mode == modeStream {
			if err := insertStream(tr, root, j, d, delta, order, eng); err != nil {
				return nil, err
			}
		}
		chaseLayer(layer, eng.Stats())
		classes = eng.Classes
		validated = eng.Gamma().Validated
	case modePar, modeDist:
		name := "MatchParallel"
		if e.w.mode == modeDist {
			name = "MatchDistributed"
		}
		sp = tr.begin(name, "dmatch", root)
		start := time.Since(t0)
		res, workers, err := matchParallel(e, ds.dir, d, rules, reg)
		if err != nil {
			return nil, err
		}
		tr.end(sp)
		j.match = time.Since(t0) - j.setup
		j.procs = append(j.procs, workers...)
		j.supersteps, j.rebalances, j.recoveries = res.Supersteps, len(res.Rebalances), len(res.Recoveries)
		addStepSpans(tr, sp, start, res)
		var sum chase.Stats
		for _, s := range res.WorkerStats {
			sum = addStats(sum, s)
		}
		chaseLayer(layer, sum)
		dmatchLayer(layer, ds.refMatch, d.Size(), j.match, res)
		classes = res.Classes
		validated = res.Validated
	}

	sp = tr.begin("output", "output", root)
	tOut := time.Now()
	j.canon = canonicalGamma(d, classes(), validated)
	if err := os.WriteFile(filepath.Join(ds.dir, "gamma.txt"), j.canon, 0o644); err != nil {
		return nil, err
	}
	j.output = time.Since(tOut)
	tr.end(sp)
	j.total = time.Since(t0)
	tr.end(root)
	j.procs = append([]procUsage{{name: "master", cpu: selfCPU() - cpu0, rssKB: peakRSSKB()}}, j.procs...)

	layer["relation.load_s"] = load.Seconds()
	layer["relation.load_mb_per_s"] = float64(ds.inputBytes) / 1e6 / load.Seconds()
	layer["relation.tuples"] = float64(d.Size())
	layer["output.canon_s"] = j.output.Seconds()
	if len(j.inserts) > 0 {
		lat := millis(j.inserts)
		layer["chase.insert_s"] = j.insert.Seconds()
		layer["chase.insert_p50_ms"] = percentile(lat, 50)
		layer["chase.insert_p90_ms"] = percentile(lat, 90)
	}
	layer["setup_s"] = j.setup.Seconds()
	layer["match_s"] = j.match.Seconds()
	layer["total_s"] = j.total.Seconds()
	layer["cpu_s"] = j.cpu().Seconds()
	layer["peak_rss_mb"] = j.rssMB()
	layer["host.cu_s"] = cal.Seconds()
	j.vals = layer
	if traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		layer["mlpred.ns_per_call"] = ds.nsPerCall
		layer["go.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		layer["go.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		layer["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
		for l, v := range selfTimes(tr.spans) {
			layer["self."+l+"_s"] = v.Seconds()
		}
	}
	return j, nil
}

// insertStream appends the held-back rows in stream order and absorbs
// them through InsertTuples in batches, timing each batch.
func insertStream(tr *tracer, root int, j *job, d, delta *dcer.Dataset, order []string, eng *dcer.Engine) error {
	next := make(map[string]int)
	batch := make([]*dcer.Tuple, 0, batchSize)
	for b := 0; b < len(order); b += batchSize {
		sp := tr.begin("InsertTuples", "chase", root)
		tb := time.Now()
		batch = batch[:0]
		for _, name := range order[b:min(b+batchSize, len(order))] {
			src := delta.Relation(name).Tuples[next[name]]
			next[name]++
			t, err := d.Append(name, src.Values()...)
			if err != nil {
				return err
			}
			batch = append(batch, t)
		}
		if _, err := eng.InsertTuples(batch); err != nil {
			return err
		}
		lat := time.Since(tb)
		tr.end(sp)
		j.inserts = append(j.inserts, lat)
		j.insert += lat
	}
	return nil
}

// matchParallel runs DMatch at the workload's worker count, in process or
// with worker processes that re-execute this binary, and returns the CPU
// time and peak RSS of each worker process.
func matchParallel(e *env, dir string, d *dcer.Dataset, rules []*dcer.Rule, reg *dcer.ClassifierRegistry) (*dcer.ParallelResult, []procUsage, error) {
	opts := dcer.ParallelOptions{Workers: e.w.workers}
	if e.w.mode == modePar {
		res, err := dcer.MatchParallel(d, rules, reg, opts)
		return res, nil, err
	}
	var procs []*exec.Cmd
	spawn := func(w int, addr string) error {
		cmd := exec.Command(e.exe, "-worker-addr", addr, "-worker-id", strconv.Itoa(w), "-dir", dir)
		cmd.Stderr = os.Stderr
		if err := e.start(cmd); err != nil {
			return err
		}
		procs = append(procs, cmd)
		return nil
	}
	res, err := dcer.MatchDistributed(d, rules, reg, opts, dcer.DistributedOptions{Spawn: spawn})
	var usage []procUsage
	for i, p := range procs {
		if err != nil {
			p.Process.Kill()
		}
		p.Wait() // a killed or failed worker shows in err
		cpu, rss := childUsage(p.ProcessState)
		usage = append(usage, procUsage{name: fmt.Sprintf("worker%d", i), cpu: cpu, rssKB: rss})
	}
	e.untrack()
	return res, usage, err
}

// start starts a worker process and registers it with the watchdog.
func (e *env) start(cmd *exec.Cmd) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	e.procs = append(e.procs, cmd)
	return nil
}

// untrack forgets the worker processes of a finished, reaped job.
func (e *env) untrack() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.procs = nil
}

// killAll stops every live worker process and waits for each to end.
func (e *env) killAll() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.procs {
		p.Process.Kill()
		p.Process.Wait()
	}
	e.procs = nil
}

// addStepSpans rebuilds the children of a DMatch call from its Result:
// the HyPart partition, then one span per superstep with the master's
// routing as the superstep's last part. The Result holds durations, not
// timestamps, so the spans are laid back to back from the call's start;
// self times do not depend on that placement.
func addStepSpans(tr *tracer, parent int, start time.Duration, res *dcer.ParallelResult) {
	if tr == nil {
		return
	}
	cur := start + res.PartitionTime
	tr.add("partition", "hypart", parent, start, cur)
	for _, st := range res.Timeline().Steps {
		end := cur + time.Duration(st.WallNs)
		s := tr.add("superstep "+strconv.Itoa(st.Step), "dmatch", parent, cur, end)
		tr.add("route", "route", s, end-time.Duration(st.RouteNs), end)
		cur = end
	}
}
