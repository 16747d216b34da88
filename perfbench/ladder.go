package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"runtime"
	"time"

	"kalmanstream/internal/diag"
	"kalmanstream/internal/freshness"
	"kalmanstream/internal/harness"
	"kalmanstream/internal/health"
	"kalmanstream/internal/history"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/server"
	"kalmanstream/internal/telemetry"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wire"
)

// runLadder is the traced run. Whatever the workload, it climbs the whole
// layer ladder, so every per-layer metric is printed:
//
//   - ingest and armed, each once untraced and once with spans around
//     every call into a layer (L3/L4 and L5), a quarter of the run's
//     seconds each; the untraced pass gives the ratios the connection
//     wrapper measures and the tracing slowdown;
//   - in process, over the frames the traced passes recorded: L0 decode,
//     L1 internal/server and L2 wire.Server, bare and with each subsystem
//     armed, all over ingest's corrections so adjacent rungs compare;
//     trace ingestion over armed's trace batches; server queries; WAL
//     recovery of armed's killed server; and the history, health and
//     telemetry ticks over the fully armed registry;
//   - the predictor replicas of the wire mix, and every E-suite
//     experiment in process.
//
// The spans are written to <work>/trace-<workload>.json.
func runLadder(o options) (*result, error) {
	lo := o
	lo.seconds = max(o.seconds/4, 1)
	lo.scale.setups = 1

	ing0, err := ingest(lo, false)
	if err != nil {
		return nil, err
	}
	ing, err := ingest(lo, true)
	if err != nil {
		return nil, err
	}
	arm0, err := armed(lo, false)
	if err != nil {
		return nil, err
	}
	arm, err := armed(lo, true)
	if err != nil {
		return nil, err
	}
	res := &result{Metrics: make(map[string]metric)}
	var chk checker
	for _, n := range []*netRun{ing0, ing, arm0, arm} {
		res.Attempted += n.attempted
		res.Failed += n.failed
		chk.attempted += n.chk.attempted
		chk.failed += n.chk.failed
	}
	put := func(name string, v float64) { res.Metrics[name] = metric{v, perLayer[name]} }

	// L3/L4 and L5: the calls the load generator makes.
	put("source.observe_ns", ing.spans.selfMeanNs("source.observe"))
	put("wire.send_ns", ing.spans.selfMeanNs("wire.send"))
	put("wire.flush_ns", ing.spans.selfMeanNs("wire.flush"))
	put("wire.poll_ns", ing.spans.selfMeanNs("wire.poll"))
	put("wire.register_us", arm.spans.selfMeanNs("wire.register")/1e3)
	put("wire.networked_observe_ns", arm.spans.selfMeanNs("wire.networked_observe"))
	put("wire.query_us", arm.spans.selfMeanNs("wire.query")/1e3)
	put("wire.send_trace_us", arm.spans.selfMeanNs("wire.send_trace")/1e3)
	put("wire.flush_wait_share", ing0.share(func(c *loadConn) time.Duration { return c.mc.writeDur }))
	put("wire.poll_wait_share", arm0.share(func(c *loadConn) time.Duration { return c.mc.pollWait }))
	var queries, pings []float64
	for _, c := range arm0.conns {
		for _, d := range c.queries {
			queries = append(queries, float64(d.Nanoseconds())/1e3)
		}
		for _, d := range c.pings {
			pings = append(pings, float64(d.Nanoseconds())/1e3)
		}
	}
	put("wire.query_p50_us", quantile(queries, 0.5))
	put("wire.query_p99_us", quantile(queries, 0.99))
	put("wire.ping_us", mean(pings))
	put("kfserver.recovery_s", arm0.recovery.Seconds())
	put("bench.trace_slowdown.ingest", ing0.rate()/ing.rate())
	put("bench.trace_slowdown.armed", arm0.rate()/arm.rate())

	ingFrames, err := parseFrames(ing)
	if err != nil {
		return nil, err
	}
	armFrames, err := parseFrames(arm)
	if err != nil {
		return nil, err
	}
	put("netsim.bytes_per_correction", float64(ingFrames.msgBytes)/float64(ingFrames.corrections))
	put("wire.corrections_per_frame", float64(ingFrames.corrections)/float64(len(ingFrames.batches)))

	tr := newTracer(time.Now())
	var sp spans
	if err := climb(o, tr, ingFrames, armFrames, arm.walCopy, put); err != nil {
		return nil, err
	}
	sp.add(tr)
	put("netsim.decode_ns_per_correction", float64(sp.aggs["netsim.decode"].Busy.Nanoseconds())/float64(ingFrames.corrections))
	put("server.tick_stream_ns", sp.selfMeanNs("server.tick_stream"))
	put("server.apply_ns", sp.selfMeanNs("server.apply"))
	put("server.value_ns", sp.selfMeanNs("server.value"))
	for _, v := range l2Variants {
		name := "wire.apply_ns_per_correction." + v.name
		put(name, float64(sp.aggs[name].Busy.Nanoseconds())/float64(ingFrames.corrections))
	}
	put("trace.ingest_ns_per_event", float64(sp.aggs["trace.ingest"].Busy.Nanoseconds())/float64(armFrames.events))
	put("wire.server_query_ns", sp.selfMeanNs("wire.server_query"))
	put("wal.recover_ms", sp.meanNs("wal.recover")/1e6)
	put("history.tick_ms", sp.meanNs("history.tick")/1e6)
	put("health.tick_us", sp.meanNs("health.tick")/1e3)
	put("telemetry.scrape_ms", sp.meanNs("telemetry.scrape")/1e6)
	put("predictor.step_ns", sp.selfMeanNs("predictor.step"))
	put("predictor.correct_ns", sp.selfMeanNs("predictor.correct"))
	put("predictor.predict_ns", sp.selfMeanNs("predictor.predict"))
	var suite time.Duration
	for i := 1; i <= experiments; i++ {
		name := fmt.Sprintf("harness.E%d", i)
		suite += sp.aggs[name].Busy
		put(name+"_s", sp.aggs[name].Busy.Seconds())
	}
	put("harness.suite_s", suite.Seconds())
	res.Attempted += experiments

	sp.merge(ing.spans)
	sp.merge(arm.spans)
	if err := sp.write(filepath.Join(o.work, "trace-"+o.workload+".json")); err != nil {
		return nil, err
	}
	chk.report("ladder")
	res.Correct = chk.failed == 0
	for name := range perLayer {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("ladder produced no %s", name)
		}
	}
	return res, nil
}

func (n *netRun) rate() float64 { return float64(n.ticks) / n.wall.Seconds() }

// share is the fraction of the workload windows' wall time spent in f.
func (n *netRun) share(f func(*loadConn) time.Duration) float64 {
	var part time.Duration
	for _, c := range n.conns {
		part += f(c)
	}
	return part.Seconds() / n.wall.Seconds()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// frames is the client→server traffic a traced pass recorded, split
// by frame kind.
type frames struct {
	regs        []wire.RegisterPayload
	batches     [][]byte // FrameMessage and FrameMessageBatch payloads
	traces      [][]trace.Event
	corrections int
	msgBytes    int
	events      int
	lastTick    map[string]int64
}

func parseFrames(n *netRun) (*frames, error) {
	f := &frames{lastTick: make(map[string]int64)}
	var scratch netsim.Message
	for _, c := range n.conns {
		r := bytes.NewReader(c.mc.record)
		for {
			typ, payload, err := wire.ReadFrame(r)
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // the recording budget cut the last frame
			}
			if err != nil {
				return nil, err
			}
			switch typ {
			case wire.FrameRegister:
				var p wire.RegisterPayload
				if err := json.Unmarshal(payload, &p); err != nil {
					return nil, err
				}
				f.regs = append(f.regs, p)
			case wire.FrameMessage, wire.FrameMessageBatch:
				k, err := netsim.DecodeBatch(payload, &scratch, func(m *netsim.Message) error {
					f.lastTick[m.StreamID] = m.Tick
					return nil
				})
				if err != nil {
					return nil, err
				}
				f.batches = append(f.batches, payload)
				f.corrections += k
				f.msgBytes += len(payload)
			case wire.FrameTrace:
				var evs []trace.Event
				if err := json.Unmarshal(payload, &evs); err != nil {
					return nil, err
				}
				f.traces = append(f.traces, evs)
				f.events += len(evs)
			}
		}
	}
	if f.corrections == 0 || len(f.regs) == 0 {
		return nil, fmt.Errorf("recorded traffic holds no corrections")
	}
	return f, nil
}

// l2Variant is one L2 rung: wire.Server.ApplyBatch with one subsystem
// (or all of them) armed.
type l2Variant struct {
	name    string
	stamped bool // replay the corrections with origin stamps
}

var l2Variants = []l2Variant{
	{"bare", false}, {"trace", false}, {"diag", false}, {"wal", false},
	{"freshness", true}, {"all", true},
}

// stamped re-encodes the recorded ingest corrections with an origin
// stamp, as a stamping source ships them, so the freshness rungs replay
// the same corrections as the others.
func stamped(batches [][]byte) ([][]byte, error) {
	clock := freshness.WallClock()
	var scratch netsim.Message
	out := make([][]byte, 0, len(batches))
	for _, b := range batches {
		var enc []byte
		_, err := netsim.DecodeBatch(b, &scratch, func(m *netsim.Message) error {
			m.Stamp = clock()
			var err error
			enc, err = m.AppendEncode(enc)
			return err
		})
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
	}
	return out, nil
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// climb runs the in-process rungs, recording spans on tr.
func climb(o options, tr *tracer, ing, arm *frames, walCopy string, put func(string, float64)) error {
	// L0: decode only.
	var scratch netsim.Message
	for _, b := range ing.batches {
		tr.begin("netsim.decode")
		_, err := netsim.DecodeBatch(b, &scratch, func(*netsim.Message) error { return nil })
		tr.end()
		if err != nil {
			return err
		}
	}

	// L1: internal/server, one TickStream per suppressed step.
	core := server.New()
	core.SetTelemetry(telemetry.New())
	core.SetTrace(trace.NewJournal(1, 1))
	advanced := make(map[string]int64)
	for _, p := range ing.regs {
		if err := core.Register(p.ID, p.Spec, p.Delta); err != nil {
			return err
		}
	}
	for _, b := range ing.batches {
		_, err := netsim.DecodeBatch(b, &scratch, func(m *netsim.Message) error {
			for advanced[m.StreamID] < m.Tick+1 {
				tr.begin("server.tick_stream")
				err := core.TickStream(m.StreamID)
				tr.end()
				if err != nil {
					return err
				}
				advanced[m.StreamID]++
			}
			tr.begin("server.apply")
			err := core.Apply(m)
			tr.end()
			return err
		})
		if err != nil {
			return err
		}
	}
	for _, p := range ing.regs {
		tr.begin("server.value")
		_, _, err := core.Value(p.ID)
		tr.end()
		if err != nil {
			return err
		}
	}

	// L2: wire.Server in process, bare and with each subsystem armed.
	var bare, all *wire.Server
	var allReg *telemetry.Registry
	var allMon *health.Monitor
	stampedBatches, err := stamped(ing.batches)
	if err != nil {
		return err
	}
	// One untimed replay first, so the first timed variant does not pay
	// for faulting in the recorded frames and the apply path's code.
	warm := wire.NewServerWith(wire.Options{Logger: quiet, Metrics: telemetry.New(), Trace: trace.NewJournal(1, 1)})
	for _, p := range ing.regs {
		if err := warm.Register(p); err != nil {
			return err
		}
	}
	for _, b := range ing.batches {
		if _, err := warm.ApplyBatch(b, &scratch); err != nil {
			return err
		}
	}
	for _, v := range l2Variants {
		batches := ing.batches
		if v.stamped {
			batches = stampedBatches
		}
		reg := telemetry.New()
		j := trace.NewJournal(trace.DefaultShards, trace.DefaultCapacity)
		opts := wire.Options{Logger: quiet, Metrics: reg, Trace: j}
		var dur *wire.Durability
		switch v.name {
		case "trace":
			j.SetEnabled(true)
		case "diag":
			opts.Diag = diag.NewRecorder(diag.Options{Registry: reg, Journal: j})
		case "wal":
			dur = &wire.Durability{}
		case "all":
			j.SetEnabled(true)
			opts.Diag = diag.NewRecorder(diag.Options{Registry: reg, Journal: j})
			opts.StaleAfter = time.Hour
			allMon = health.NewMonitor(health.Config{Registry: reg, Logger: quiet})
			opts.Health = allMon
			dur = &wire.Durability{}
		}
		var srv *wire.Server
		var err error
		if dur != nil {
			if dur.Dir, err = scratchDir(o, "l2wal"); err != nil {
				return err
			}
			srv, err = wire.NewDurableServer(opts, *dur)
		} else {
			srv = wire.NewServerWith(opts)
		}
		if err != nil {
			return err
		}
		for _, p := range ing.regs {
			if err := srv.Register(p); err != nil {
				return err
			}
		}
		name := "wire.apply_ns_per_correction." + v.name
		for _, b := range batches {
			tr.begin(name)
			_, err := srv.ApplyBatch(b, &scratch)
			tr.end()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		switch v.name {
		case "bare":
			bare = srv
		case "all":
			all, allReg = srv, reg
		default:
			srv.Close()
		}
	}
	defer all.Close()

	for id, tick := range ing.lastTick {
		tr.begin("wire.server_query")
		_, err := bare.Query(wire.QueryPayload{ID: id, Tick: tick})
		tr.end()
		if err != nil {
			return err
		}
	}

	// Trace ingestion as the server does it for a FrameTrace batch.
	j := trace.NewJournal(trace.DefaultShards, trace.DefaultCapacity)
	j.SetEnabled(true)
	aud := trace.NewAuditor(telemetry.New(), j)
	for _, evs := range arm.traces {
		tr.begin("trace.ingest")
		for i := range evs {
			j.Ingest(evs[i])
			aud.Ingest(evs[i])
		}
		tr.end()
	}

	// WAL recovery of the killed armed server's directory.
	tr.begin("wal.recover")
	rec, err := wire.NewDurableServer(wire.Options{Logger: quiet, Metrics: telemetry.New(),
		Trace: trace.NewJournal(1, 1)}, wire.Durability{Dir: walCopy})
	tr.end()
	if err != nil {
		return err
	}
	rec.Close()

	// The periodic observability work, over the registry the fully
	// armed replay left behind.
	hist, err := history.NewStore(history.Config{Registry: allReg})
	if err != nil {
		return err
	}
	for i := 0; i < 10; i++ {
		tr.begin("history.tick")
		hist.Tick()
		tr.end()
		tr.begin("health.tick")
		allMon.Tick()
		tr.end()
		tr.begin("telemetry.scrape")
		err := allReg.WritePrometheus(io.Discard)
		tr.end()
		if err != nil {
			return err
		}
	}

	if err := predictorRung(tr); err != nil {
		return err
	}

	// Every E-suite experiment in process.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 1; i <= experiments; i++ {
		id := fmt.Sprintf("E%d", i)
		e, err := harness.ByID(id)
		if err != nil {
			return err
		}
		tr.begin("harness." + id)
		_, err = e.Run(harness.Config{Ticks: o.scale.suiteTicks})
		tr.end()
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	put("harness.alloc_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	return nil
}

// predictorRung steps the Kalman constant-velocity and random-walk
// replicas of the wire mix through generated inputs, correcting on one
// tick in six as the gates do.
func predictorRung(tr *tracer) error {
	ins := makeInputs(1, 2*len(kinds), 4096)
	for _, in := range ins {
		p, err := in.kind.spec.Build()
		if err != nil {
			return err
		}
		z := make([]float64, 1)
		for t := range in.values {
			tr.begin("predictor.step")
			p.Step()
			tr.end()
			tr.begin("predictor.predict")
			_ = p.Predict()
			tr.end()
			if t%6 == 0 {
				z[0] = in.values[t]
				tr.begin("predictor.correct")
				err := p.Correct(z)
				tr.end()
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
