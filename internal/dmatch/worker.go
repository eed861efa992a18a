package dmatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"dcer/internal/chase"
	"dcer/internal/fnv"
	"dcer/internal/mlpred"
	"dcer/internal/provenance"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// localWorker is a worker whose chase engine lives in this process. Run
// drives n of them from the superstep loop; a worker process (RunWorker)
// drives one from the wire, which is what keeps the engines — and
// therefore Γ — identical across execution modes.
type localWorker struct {
	id    int
	d     *relation.Dataset
	rules []*rule.Rule
	reg   *mlpred.Registry
	opts  chase.Options

	eng    *chase.Engine
	replay []chase.Fact // history to feed after the next full Deduce
	fresh  bool         // assigned since the last step: run Deduce first
}

// localWorkers builds Run's n in-process workers: engineOptions plus
// this run's observability hooks, each engine labeled and laned as
// worker i.
func localWorkers(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options,
	n, idSpace int, rtc telemetry.TraceContext, provLogs []*provenance.Log) []worker {
	workers := make([]worker, n)
	for i := range workers {
		copts := engineOptions(opts, idSpace)
		copts.Metrics = opts.Metrics
		copts.MetricsLabels = []telemetry.Label{telemetry.L("worker", strconv.Itoa(i))}
		copts.Trace = rtc.Lane(telemetry.PIDDMatch, int32(i+1))
		copts.Log = opts.Log
		copts.Health = opts.Health
		if provLogs != nil {
			copts.Provenance = provLogs[i]
		}
		workers[i] = &localWorker{id: i, d: d, rules: rules, reg: reg, opts: copts}
	}
	return workers
}

// assign builds the engine over a fragment, with each rule scoped to the
// union of the worker's blocks generated for that rule (hypercube
// semantics: a rule is checked within its own blocks). Identical rule
// scopes are deduplicated so MQO index sharing applies.
func (w *localWorker) assign(frag []relation.TID, ruleFrags [][]relation.TID, replay []chase.Fact) error {
	fd := w.d.Fragment(frag)
	scopes := make([]*relation.Dataset, len(w.rules))
	type scopeEntry struct {
		ids []relation.TID
		sc  *relation.Dataset
	}
	byContent := map[uint64][]scopeEntry{}
	for ri, ids := range ruleFrags {
		if len(ids) == len(frag) {
			scopes[ri] = fd
			continue
		}
		key := scopeKey(ids)
		for _, ent := range byContent[key] {
			if sameIDs(ent.ids, ids) {
				scopes[ri] = ent.sc
				break
			}
		}
		if scopes[ri] == nil {
			scopes[ri] = w.d.Fragment(ids)
			byContent[key] = append(byContent[key], scopeEntry{ids, scopes[ri]})
		}
	}
	eng, err := chase.NewScoped(fd, w.rules, scopes, w.reg, w.opts)
	if err != nil {
		return fmt.Errorf("dmatch: worker %d: %w", w.id, err)
	}
	w.eng, w.replay, w.fresh = eng, replay, true
	return nil
}

// step runs partial evaluation (Deduce) on a freshly assigned engine and
// then the replayed history plus the inbox through A_Δ (IncDeduce). A
// worker with nothing to do returns at once, reporting no busy time.
func (w *localWorker) step(_ int, inbox []chase.Fact, tc telemetry.TraceContext) ([]chase.Fact, time.Duration, error) {
	if !w.fresh && len(inbox) == 0 {
		return nil, 0, nil
	}
	if tc.Enabled() {
		// Re-parent the engine under this superstep, on the worker's lane,
		// so its Deduce/IncDeduce roots (and their drain rounds) render as
		// the step's children. The engine is quiescent here — only this
		// goroutine drives it.
		w.eng.SetTraceContext(tc.Lane(telemetry.PIDDMatch, int32(w.id+1)))
	}
	start := time.Now()
	var delta []chase.Fact
	if w.fresh {
		delta = w.eng.Deduce()
		inbox = append(w.replay, inbox...)
		w.replay, w.fresh = nil, false
	}
	if len(inbox) > 0 {
		delta = append(delta, w.eng.IncDeduce(inbox)...)
	}
	return delta, time.Since(start), nil
}

func (w *localWorker) stats() chase.Stats {
	if w.eng == nil {
		return chase.Stats{}
	}
	return w.eng.Stats()
}

// scopeKey fingerprints a sorted id list for scope deduplication with
// 64-bit FNV-1a — no per-id string building. Callers confirm candidate
// hits with sameIDs, so a hash collision costs a duplicate scope dataset,
// never a wrong one.
func scopeKey(ids []relation.TID) uint64 {
	h := uint64(fnv.Offset64)
	h = fnv.Uint64(h, uint64(len(ids)))
	for _, id := range ids {
		h = fnv.Uint64(h, uint64(id))
	}
	return h
}

// sameIDs reports whether two sorted id lists are identical.
func sameIDs(a, b []relation.TID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WorkerOptions configures one worker process (RunWorker).
type WorkerOptions struct {
	// Worker is this process's slot in [0, Workers).
	Worker int
	// Stats, when non-nil, receives this worker's wire tallies.
	Stats *wire.Stats
	// HeartbeatInterval is the Pong cadence; 0 means 1s. It must be well
	// under the master's HeartbeatTimeout.
	HeartbeatInterval time.Duration
	// CrashAfter, when > 0, makes the worker abruptly close its connection
	// and return ErrInjectedCrash after sending that many deltas — the
	// fault-injection hook for recovery tests and the CI smoke.
	CrashAfter int
}

// ErrInjectedCrash is returned by RunWorker when WorkerOptions.CrashAfter
// triggers — the fault-injection hook the recovery tests and the CI smoke
// use. The CLI maps it to a distinct exit code.
var ErrInjectedCrash = errors.New("dmatch: injected worker crash")

// RunWorker dials the master and serves the worker half of the
// distributed BSP protocol with one localWorker until MsgDone: MsgAssign
// (re)builds the engine with the options the master sent, each MsgStep is
// answered with the step's delta, and a side goroutine Pongs on an
// interval so a long Deduce never looks like a dead process. The dataset
// and rules are this process's own load of the same inputs the master
// has; the Hello fingerprint proves it.
func RunWorker(addr string, d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, wopts WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("dmatch: worker %d: dial %s: %w", wopts.Worker, addr, err)
	}
	defer conn.Close()
	enc := wire.NewEncoder(conn, wopts.Stats)
	dec := wire.NewDecoder(conn, wopts.Stats)
	// The encoder is shared between the main loop (Delta/Stats) and the
	// heartbeat goroutine (Pong); writes serialize on encMu.
	var encMu sync.Mutex
	send := func(write func(*wire.Encoder) error) error {
		encMu.Lock()
		defer encMu.Unlock()
		return write(enc)
	}

	err = send(func(e *wire.Encoder) error {
		return e.Hello(wire.Hello{
			Version: wire.Version, Worker: wopts.Worker,
			DatasetSize: d.Size(), IDSpace: datasetIDSpace(d), Rules: len(rules),
		})
	})
	if err != nil {
		return fmt.Errorf("dmatch: worker %d: hello: %w", wopts.Worker, err)
	}

	hb := wopts.HeartbeatInterval
	if hb <= 0 {
		hb = time.Second
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if send((*wire.Encoder).Pong) != nil {
					return // connection gone; the main loop will see it too
				}
			}
		}
	}()

	lw := &localWorker{id: wopts.Worker, d: d, rules: rules, reg: reg}
	sent := 0
	for {
		msg, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				// Master gone without Done: abort quietly — the master (or
				// its successor) owns the run's outcome.
				return fmt.Errorf("dmatch: worker %d: master connection closed", wopts.Worker)
			}
			return fmt.Errorf("dmatch: worker %d: read: %w", wopts.Worker, err)
		}
		switch msg.Type {
		case wire.MsgAssign:
			a := msg.Assign
			lw.opts = a.Opts
			if err := lw.assign(a.Frag, a.RuleFrags, a.Replay); err != nil {
				return err
			}
		case wire.MsgStep:
			if lw.eng == nil {
				return fmt.Errorf("dmatch: worker %d: step before assign", wopts.Worker)
			}
			delta, busy, _ := lw.step(msg.Step.Step, msg.Step.Facts, telemetry.TraceContext{})
			err := send(func(e *wire.Encoder) error {
				return e.Delta(wire.Delta{Step: msg.Step.Step, BusyNs: int64(busy), Facts: delta})
			})
			if err != nil {
				return fmt.Errorf("dmatch: worker %d: delta: %w", wopts.Worker, err)
			}
			sent++
			if wopts.CrashAfter > 0 && sent >= wopts.CrashAfter {
				conn.Close()
				return ErrInjectedCrash
			}
		case wire.MsgDone:
			js, jerr := json.Marshal(lw.stats())
			if jerr != nil {
				js = []byte("{}")
			}
			return send(func(e *wire.Encoder) error { return e.StatsJSON(js) })
		case wire.MsgPong:
			// ignore (masters don't ping, but tolerate it)
		default:
			return fmt.Errorf("dmatch: worker %d: unexpected %d frame", wopts.Worker, msg.Type)
		}
	}
}
