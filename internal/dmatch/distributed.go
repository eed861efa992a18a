package dmatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcer/internal/chase"
	"dcer/internal/mlpred"
	"dcer/internal/relation"
	"dcer/internal/rule"
	"dcer/internal/telemetry"
	"dcer/internal/wire"
)

// Multi-process DMatch: the master and the workers are separate OS
// processes, and the master's per-destination batches feed the compact
// binary encoding of internal/wire over TCP instead of handing slices
// across goroutines. The superstep loop is the same drive that Run uses
// (bsp.go); only the worker kind differs. Each remoteWorker is stepped
// from its own goroutine, which encodes and flushes the inbox and then
// waits for the delta, so worker i computes while worker j's (larger)
// inbox is still being encoded.
//
// Failure detection: a worker is dead when its connection errors (the
// reader goroutine sees EOF/reset), when a write stalls past the
// heartbeat timeout, or when it stays silent — no frame, no Pong — past
// the heartbeat timeout while the master waits for it. The loop then
// recovers exactly as it would for any failed worker.

// DistOptions configures the process-level side of a distributed run;
// everything Γ-relevant stays in Options.
type DistOptions struct {
	// Listen is the TCP address the master binds; "" means 127.0.0.1:0
	// (an ephemeral local port).
	Listen string
	// Spawn starts worker i pointed at the master's address. The CLI
	// re-executes its own binary with -worker; tests dial in-process
	// goroutines. Spawn must not block on the worker's lifetime.
	Spawn func(worker int, addr string) error
	// HeartbeatTimeout is how long a worker may stay silent (no frame, no
	// Pong) before the master declares it dead; 0 means 10s.
	HeartbeatTimeout time.Duration
	// AcceptTimeout bounds the handshake phase; 0 means 30s.
	AcceptTimeout time.Duration
}

// inbound is one decoded frame (or the terminal error) of a worker
// connection, as the reader goroutine hands it to the waiting step.
type inbound struct {
	delta *wire.Delta
	stats []byte
	err   error
}

// remoteWorker is the master's handle on one worker process: the
// connection and its encoder, the reader goroutine's inbound queue, and
// the liveness clock the reader stamps on every frame.
type remoteWorker struct {
	id, n     int
	conn      net.Conn
	enc       *wire.Encoder
	opts      chase.Options // engine options sent with every Assign
	hbTimeout time.Duration
	// in holds at most the one reply the master awaits plus the
	// connection's terminal error, hence its capacity of two.
	in        chan inbound
	closed    chan struct{} // closed by close: the reader stops
	readDone  chan struct{} // closed when the reader has exited
	closeOnce sync.Once
	lastBeat  atomic.Int64 // UnixNano of the last inbound frame
}

// close shuts the connection and returns once the reader has exited.
func (rw *remoteWorker) close() {
	rw.closeOnce.Do(func() {
		close(rw.closed)
		rw.conn.Close()
	})
	<-rw.readDone
}

// read decodes inbound frames until the connection dies, stamping
// liveness and queueing deltas, stats, and the terminal error.
func (rw *remoteWorker) read(dec *wire.Decoder) {
	defer close(rw.readDone)
	for {
		msg, err := dec.Next()
		if err == nil {
			rw.lastBeat.Store(time.Now().UnixNano())
		}
		var ev inbound
		switch {
		case err != nil:
			ev.err = err
		case msg.Type == wire.MsgPong:
			continue // liveness only
		case msg.Type == wire.MsgDelta:
			ev.delta = &msg.Delta
		case msg.Type == wire.MsgStats:
			ev.stats = msg.StatsJSON
		default:
			ev.err = fmt.Errorf("unexpected %d frame from worker", msg.Type)
		}
		select {
		case rw.in <- ev:
		case <-rw.closed:
			return
		}
		if ev.err != nil {
			return
		}
	}
}

// send writes one message under a write deadline, so a worker that stops
// reading cannot stall the master; any failure closes the connection.
func (rw *remoteWorker) send(write func(*wire.Encoder) error) error {
	rw.conn.SetWriteDeadline(time.Now().Add(rw.hbTimeout))
	if err := write(rw.enc); err != nil {
		rw.close()
		return fmt.Errorf("send: %w", err)
	}
	return nil
}

// await returns the worker's next inbound frame, or an error when the
// connection died or the worker stayed silent past the heartbeat timeout.
func (rw *remoteWorker) await() (inbound, error) {
	tick := time.NewTicker(rw.hbTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case ev := <-rw.in:
			if ev.err != nil {
				rw.close()
			}
			return ev, ev.err
		case <-tick.C:
			if time.Now().UnixNano()-rw.lastBeat.Load() > int64(rw.hbTimeout) {
				rw.close()
				return inbound{}, fmt.Errorf("silent for more than %v", rw.hbTimeout)
			}
		}
	}
}

// assign ships the fragment and replay; the worker process builds its
// engine on receipt.
func (rw *remoteWorker) assign(frag []relation.TID, ruleFrags [][]relation.TID, replay []chase.Fact) error {
	a := wire.Assign{Worker: rw.id, Workers: rw.n, Opts: rw.opts, Frag: frag, RuleFrags: ruleFrags, Replay: replay}
	return rw.send(func(e *wire.Encoder) error { return e.Assign(a) })
}

func (rw *remoteWorker) step(step int, inbox []chase.Fact, _ telemetry.TraceContext) ([]chase.Fact, time.Duration, error) {
	if err := rw.send(func(e *wire.Encoder) error { return e.Step(wire.Step{Step: step, Facts: inbox}) }); err != nil {
		return nil, 0, err
	}
	ev, err := rw.await()
	if err != nil {
		return nil, 0, err
	}
	if ev.delta == nil || ev.delta.Step != step {
		rw.close()
		return nil, 0, fmt.Errorf("worker %d answered step %d out of protocol", rw.id, step)
	}
	return ev.delta.Facts, time.Duration(ev.delta.BusyNs), nil
}

// stats sends Done and reads the worker's final chase.Stats; a worker
// that dies first reports zero stats (not worth failing the run).
func (rw *remoteWorker) stats() chase.Stats {
	var st chase.Stats
	if rw.send((*wire.Encoder).Done) == nil {
		if ev, err := rw.await(); err == nil && ev.stats != nil {
			json.Unmarshal(ev.stats, &st)
		}
	}
	return st
}

// RunDistributed partitions d with HyPart and executes the BSP fixpoint
// with n worker processes over TCP. Every worker loads the same dataset
// and rules from disk (loading is deterministic) and proves it via the
// Hello fingerprint; the master aborts on mismatch rather than computing
// a wrong Γ over divergent inputs. The returned Result is byte-identical
// in Γ (Matches, Validated, Eq) to Run with the same Options.
func RunDistributed(d *relation.Dataset, rules []*rule.Rule, reg *mlpred.Registry, opts Options, dopts DistOptions) (*Result, error) {
	n := opts.Workers
	if n < 1 {
		return nil, errors.New("dmatch: distributed mode needs an explicit worker count")
	}
	if opts.Provenance {
		return nil, errors.New("dmatch: provenance capture is not supported in distributed mode")
	}
	if dopts.Spawn == nil {
		return nil, errors.New("dmatch: DistOptions.Spawn is required")
	}
	hbTimeout := dopts.HeartbeatTimeout
	if hbTimeout <= 0 {
		hbTimeout = 10 * time.Second
	}
	acceptTO := dopts.AcceptTimeout
	if acceptTO <= 0 {
		acceptTO = 30 * time.Second
	}
	listen := dopts.Listen
	if listen == "" {
		listen = "127.0.0.1:0"
	}
	ws := &wire.Stats{}
	remotes := make([]*remoteWorker, n)
	defer func() {
		for _, rw := range remotes {
			if rw != nil {
				rw.close()
			}
		}
	}()

	res, err := drive(d, rules, n, opts, nil, ws, func(idSpace int, _ telemetry.TraceContext) ([]worker, error) {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return nil, fmt.Errorf("dmatch: listen: %w", err)
		}
		defer ln.Close()
		addr := ln.Addr().String()
		for i := 0; i < n; i++ {
			if err := dopts.Spawn(i, addr); err != nil {
				return nil, fmt.Errorf("dmatch: spawn worker %d: %w", i, err)
			}
		}
		// Handshake: accept n connections and validate each Hello against
		// the master's own view of the inputs.
		ln.(*net.TCPListener).SetDeadline(time.Now().Add(acceptTO))
		workers := make([]worker, n)
		for got := 0; got < n; got++ {
			conn, err := ln.Accept()
			if err != nil {
				return nil, fmt.Errorf("dmatch: accepting workers (%d/%d connected): %w", got, n, err)
			}
			conn.SetReadDeadline(time.Now().Add(acceptTO))
			dec := wire.NewDecoder(conn, ws)
			msg, err := dec.Next()
			if err != nil || msg.Type != wire.MsgHello {
				conn.Close()
				return nil, fmt.Errorf("dmatch: bad handshake: %v", err)
			}
			h := msg.Hello
			switch {
			case h.Version != wire.Version:
				err = fmt.Errorf("protocol version %d, want %d", h.Version, wire.Version)
			case h.Worker < 0 || h.Worker >= n:
				err = fmt.Errorf("worker id %d out of range [0,%d)", h.Worker, n)
			case remotes[h.Worker] != nil:
				err = fmt.Errorf("duplicate worker id %d", h.Worker)
			case h.DatasetSize != d.Size() || h.IDSpace != idSpace || h.Rules != len(rules):
				err = fmt.Errorf("dataset fingerprint mismatch: worker has (size=%d idspace=%d rules=%d), master has (%d %d %d)",
					h.DatasetSize, h.IDSpace, h.Rules, d.Size(), idSpace, len(rules))
			}
			if err != nil {
				conn.Close()
				return nil, fmt.Errorf("dmatch: worker handshake: %w", err)
			}
			conn.SetReadDeadline(time.Time{})
			rw := &remoteWorker{
				id: h.Worker, n: n, conn: conn, enc: wire.NewEncoder(conn, ws),
				opts: engineOptions(opts, idSpace), hbTimeout: hbTimeout,
				in: make(chan inbound, 2), closed: make(chan struct{}), readDone: make(chan struct{}),
			}
			rw.lastBeat.Store(time.Now().UnixNano())
			remotes[h.Worker], workers[h.Worker] = rw, rw
			go rw.read(dec)
		}
		return workers, nil
	})
	if err != nil {
		return nil, err
	}
	if mreg := opts.Metrics; mreg != nil {
		snap := res.Wire
		mreg.Counter("dcer_wire_bytes_out").Add(snap.BytesOut)
		mreg.Counter("dcer_wire_bytes_in").Add(snap.BytesIn)
		mreg.Counter("dcer_wire_frames_out").Add(snap.FramesOut)
		mreg.Counter("dcer_wire_frames_in").Add(snap.FramesIn)
		mreg.Counter("dcer_wire_encode_ns").Add(snap.EncodeNs)
		mreg.Counter("dcer_wire_decode_ns").Add(snap.DecodeNs)
		mreg.Counter("dcer_wire_dict_strings").Add(snap.DictStrings)
	}
	return res, nil
}
