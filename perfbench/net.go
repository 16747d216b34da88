package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"kalmanstream/internal/freshness"
	"kalmanstream/internal/netsim"
	"kalmanstream/internal/source"
	"kalmanstream/internal/trace"
	"kalmanstream/internal/wire"
)

// Both network workloads load one kfserver from this process over
// loadConns TCP connections on loopback, closed loop: one goroutine runs
// lock-step rounds on each connection in turn (every one of its streams
// observes the next tick, then one flush), so a slower server receives
// less load instead of a growing backlog. One driving goroutine and the
// server are two busy threads on a 2-vCPU host; a goroutine per
// connection made three, and the scheduler's choice among them moved the
// server's CPU per tick by 2× from one second to the next.
const (
	loadConns = 2
	// coalesceMax is the correction count that trips a frame flush.
	coalesceMax = 32
	// pollEvery is the ingest round interval between PollFeedback calls.
	pollEvery = 32
	// armedFlushWait is how long the armed run waits between its last
	// frame and the SIGKILL: three of kfserver's default 100ms WAL
	// group-commit intervals, so everything sent is durable.
	armedFlushWait = 300 * time.Millisecond
	// journalCap sizes each armed source's private trace ring; it drains
	// every wire.TraceFlushEvery observations, one gate event per tick.
	journalCap = 4 * wire.TraceFlushEvery
)

// loadConn is one load-generator connection and the streams it drives.
type loadConn struct {
	mc      *meteredConn
	client  *wire.Client
	inputs  []*input
	gates   []*source.Source        // ingest
	nsrcs   []*wire.NetworkedSource // armed
	tr      *tracer                 // nil when untraced
	sendErr error
	rounds  int64
	lastRTT time.Duration // armed: the last ping round trip seen
	nextQ   int           // armed: the next of the connection's streams to query
	queries []time.Duration
	pings   []time.Duration
	answers []wire.AnswerPayload // closing sweep, in input order
}

// netRun is everything one network workload run measured.
//
// attempted and failed count the closing operations whose output is
// checked: the sweep queries, the metrics fetch and, on armed, the
// post-recovery queries. Every run performs the same number of them, so
// an operation that fails every time is the same share of every run. A
// transport error during the measured phase aborts the run instead.
type netRun struct {
	chk           checker
	attempted     int64
	failed        int64
	conns         []*loadConn
	setups        []time.Duration
	wall          time.Duration
	refRate       float64 // stream-ticks per reference second
	refCPUPerTick float64 // server CPU reference ns per stream-tick
	ticks         int64
	sent          int64
	bytes         int64
	peakRSS       float64
	recovery      time.Duration
	walCopy       string // traced armed runs: the killed server's WAL, copied
	spans         spans
}

// result converts the run into the end-to-end result.
func (n *netRun) result() *result {
	ticks := float64(n.ticks)
	return &result{
		Correct:   n.chk.failed == 0,
		Attempted: n.attempted,
		Failed:    n.failed,
		Metrics: map[string]metric{
			"ticks_per_ref_s":            {n.refRate, endToEnd["ticks_per_ref_s"]},
			"server_cpu_ref_ns_per_tick": {n.refCPUPerTick, endToEnd["server_cpu_ref_ns_per_tick"]},
			"peak_rss_mb":                {n.peakRSS, endToEnd["peak_rss_mb"]},
			"wire_bytes_per_tick":        {float64(n.bytes) / ticks, endToEnd["wire_bytes_per_tick"]},
			"corrections_per_ktick":      {1000 * float64(n.sent) / ticks, endToEnd["corrections_per_ktick"]},
			"setup_s":                    {median(durSeconds(n.setups)), endToEnd["setup_s"]},
		},
	}
}

// setUp starts a server and connects loadConns clients, then registers
// each connection's streams on it with register, the connections at once.
// The returned duration covers server start, dial and registration.
func setUp(o options, ins []*input, traced bool, serverArgs []string,
	register func(c *loadConn) error) (*serverProc, []*loadConn, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(o, serverArgs...)
	if err != nil {
		return nil, nil, 0, err
	}
	conns := make([]*loadConn, loadConns)
	for i := range conns {
		budget := 0
		if traced {
			budget = o.scale.recordBytes
		}
		mc, err := dialMetered(srv.addr, budget)
		if err != nil {
			tearDown(srv, conns[:i])
			return nil, nil, 0, err
		}
		c := &loadConn{mc: mc, client: wire.NewClient(mc)}
		c.client.EnableCoalescing(wire.CoalesceConfig{MaxCorrections: coalesceMax})
		if traced {
			c.tr = newTracer(start)
		}
		conns[i] = c
	}
	for i, in := range ins {
		c := conns[i%loadConns]
		c.inputs = append(c.inputs, in)
	}
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = register(c)
		}()
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		if err != nil {
			tearDown(srv, conns)
			return nil, nil, 0, err
		}
	}
	return srv, conns, took, nil
}

func tearDown(srv *serverProc, conns []*loadConn) {
	for _, c := range conns {
		c.mc.Close()
	}
	srv.kill()
}

// setUpRepeated runs the set-up o.scale.setups times, keeping the last
// rig for the measured phase and recording every set-up time.
func setUpRepeated(o options, ins []*input, traced bool, serverArgs func() ([]string, error),
	register func(c *loadConn) error, n *netRun) (*serverProc, error) {
	for i := 0; i < o.scale.setups; i++ {
		args, err := serverArgs()
		if err != nil {
			return nil, err
		}
		srv, conns, took, err := setUp(o, ins, traced, args, register)
		if err != nil {
			return nil, err
		}
		n.setups = append(n.setups, took)
		if i < o.scale.setups-1 {
			tearDown(srv, conns)
			continue
		}
		n.conns = conns
		return srv, nil
	}
	return nil, fmt.Errorf("no set-ups configured")
}

// workWindow and refWindow are the nominal lengths of a workload window
// and a reference window (calib.go); the measured phase alternates them,
// starting and ending with a reference window.
const (
	workWindow = 1000 * time.Millisecond
	refWindow  = 500 * time.Millisecond
)

// windows splits a measured phase into n workload windows of work each
// and n+1 reference windows of ref each. The reference windows take at
// most a quarter of the phase.
func windows(phase time.Duration) (n int, work, ref time.Duration) {
	n = max(1, int((phase-refWindow)/(workWindow+refWindow)))
	ref = min(refWindow, phase/time.Duration(4*n+4))
	work = (phase - time.Duration(n+1)*ref) / time.Duration(n)
	return n, work, ref
}

// measure alternates reference windows with workload windows, in which
// round runs on every connection in turn until the window's time is up
// and the server has caught up. It records the workload windows' wall
// time and the client→server bytes, and
// ticks_per_ref_s and server_cpu_ref_ns_per_tick: the medians over the
// windows of the tick rate and of the server's CPU per tick, in the run's
// reference units. A stall of the host (a paused VM, a burst of load
// elsewhere) costs at most the windows it falls in.
func (n *netRun) measure(o options, srv *serverProc, round func(c *loadConn) error) error {
	ref := newRefKernel(len(n.conns))
	var bytes0 int64
	for _, c := range n.conns {
		bytes0 += c.mc.written
	}
	count, work, refLen := windows(time.Duration(o.seconds * float64(time.Second)))
	var refs []refSample
	var rates, cpuPerTick []float64
	for w := 0; ; w++ {
		s, err := ref.run(refLen)
		if err != nil {
			return err
		}
		refs = append(refs, s)
		if w == count {
			break
		}
		cpu0, err := srv.cpu()
		if err != nil {
			return err
		}
		var ticks int64
		t0 := time.Now()
		for deadline := t0.Add(work); time.Now().Before(deadline); {
			for i, c := range n.conns {
				if err := round(c); err != nil {
					return fmt.Errorf("connection %d: %w", i, err)
				}
				ticks += int64(len(c.inputs))
			}
		}
		// The window ends when the server has applied everything sent in
		// it: a query waits behind every frame of its connection. Without
		// it the socket buffers carry up to a second of unapplied ticks
		// from one window into the next, the window's rate measures how
		// fast the buffers filled, and the server keeps working through
		// the reference window.
		for _, c := range n.conns {
			in := c.inputs[0]
			last := c.rounds - 1
			ans, err := c.client.Query(in.id, last)
			if err != nil {
				return fmt.Errorf("window query %s: %w", in.id, err)
			}
			n.chk.check(checkAnswer(ans, in.id, last, in.at(last), in.kind.delta))
		}
		wall := time.Since(t0)
		cpu1, err := srv.cpu()
		if err != nil {
			return err
		}
		n.wall += wall
		rates = append(rates, float64(ticks)/wall.Seconds())
		cpuPerTick = append(cpuPerTick, float64((cpu1-cpu0).Nanoseconds())/float64(ticks))
	}
	wallScale, cpuScale, wallDiv, cpuMul := refScale(len(n.conns), refs)
	n.refRate = median(rates) / wallDiv
	n.refCPUPerTick = median(cpuPerTick) * cpuMul
	logf("%d windows: %.0f ticks/s and %.0f server ns/tick; reference scale %.3f wall, %.3f CPU",
		count, median(rates), median(cpuPerTick), wallScale, cpuScale)
	for _, c := range n.conns {
		n.bytes += c.mc.written
		n.ticks += c.rounds * int64(len(c.inputs))
	}
	n.bytes -= bytes0
	return nil
}

// sweep queries every stream of every connection at its last tick,
// checking each answer against the generated value.
func (n *netRun) sweep() {
	for _, c := range n.conns {
		last := c.rounds - 1
		c.answers = make([]wire.AnswerPayload, len(c.inputs))
		for i, in := range c.inputs {
			n.attempted++
			c.tr.begin("wire.query")
			ans, err := c.client.Query(in.id, last)
			c.tr.end()
			if err != nil {
				n.failed++
				logf("query %s: %v", in.id, err)
				continue
			}
			c.answers[i] = ans
			n.chk.check(checkAnswer(ans, in.id, last, in.at(last), in.kind.delta))
		}
	}
}

// fetchMetrics reads the server's exposition over the wire with
// Client.Metrics. A failed fetch is a failed operation.
func (n *netRun) fetchMetrics() (string, bool) {
	n.attempted++
	text, err := n.conns[0].client.Metrics()
	if err != nil {
		n.failed++
		logf("metrics: %v", err)
		return "", false
	}
	return text, true
}

// ingest is the write-only workload: thousands of gated streams feed a
// kfserver started with no flags beyond its address.
func ingest(o options, traced bool) (*netRun, error) {
	ins := makeInputs(o.seed, o.scale.ingestStreams, o.scale.block)
	n := &netRun{}
	noArgs := func() ([]string, error) { return nil, nil }
	srv, err := setUpRepeated(o, ins, traced, noArgs, registerBurst, n)
	if err != nil {
		return nil, err
	}
	defer tearDown(srv, n.conns)
	for _, c := range n.conns {
		for _, in := range c.inputs {
			g, err := source.New(source.Config{StreamID: in.id, Spec: in.kind.spec, Delta: in.kind.delta},
				func(m *netsim.Message) {
					c.tr.begin("wire.send")
					err := c.client.SendCorrection(m)
					c.tr.end()
					if err != nil && c.sendErr == nil {
						c.sendErr = err
					}
					netsim.PutMessage(m)
				})
			if err != nil {
				return nil, err
			}
			c.gates = append(c.gates, g)
		}
	}
	if err := n.measure(o, srv, ingestRound); err != nil {
		return nil, err
	}
	for _, c := range n.conns {
		for _, g := range c.gates {
			n.sent += g.Stats().Sent
		}
	}
	n.sweep()
	// Without -http the wire fetch is the only way to read the server's
	// counters; when it fails the two checks below cannot run.
	if text, ok := n.fetchMetrics(); ok {
		sums := promSums(text, "corrections_sent_total", "corrections_suppressed_total")
		n.chk.check(checkEqual("corrections_sent_total", sums["corrections_sent_total"], n.sent))
		n.chk.check(checkEqual("corrections_sent_total+corrections_suppressed_total",
			sums["corrections_sent_total"]+sums["corrections_suppressed_total"], n.ticks))
	}
	if n.peakRSS, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	for _, c := range n.conns {
		n.spans.add(c.tr)
	}
	return n, nil
}

// registerBurst registers every stream of an ingest connection in one
// burst: every register frame in one write, then every acknowledgement.
// Registering one stream per round trip (Client.Register) made set-up
// time a sum of 2048 cross-process wake-ups per connection, which moved
// it by 2× with the host's load; the burst leaves the server's own
// registration work. It runs before the connection's Client does any I/O
// and reads the acknowledgements unbuffered, so the Client's buffers
// start empty.
func registerBurst(c *loadConn) error {
	var frames bytes.Buffer
	for _, in := range c.inputs {
		p, err := json.Marshal(wire.RegisterPayload{ID: in.id, Spec: in.kind.spec, Delta: in.kind.delta})
		if err != nil {
			return err
		}
		if err := wire.WriteFrame(&frames, wire.FrameRegister, p); err != nil {
			return err
		}
	}
	c.tr.begin("wire.register_burst")
	defer c.tr.end()
	if _, err := c.mc.Write(frames.Bytes()); err != nil {
		return err
	}
	for _, in := range c.inputs {
		typ, payload, err := wire.ReadFrame(c.mc)
		if err != nil {
			return fmt.Errorf("register %s: %w", in.id, err)
		}
		if typ != wire.FrameOK {
			return fmt.Errorf("register %s: server answered frame type %d: %s", in.id, typ, payload)
		}
	}
	return nil
}

// ingestRound is one lock-step round of a connection's gates: every
// stream observes the next tick, then one flush, and one PollFeedback
// every pollEvery rounds.
func ingestRound(c *loadConn) error {
	r := c.rounds
	var z [1]float64
	for i, g := range c.gates {
		z[0] = c.inputs[i].at(r)
		c.tr.begin("source.observe")
		_, err := g.Observe(r, z[:])
		c.tr.end()
		if err == nil {
			err = c.sendErr
		}
		if err != nil {
			return err
		}
	}
	c.tr.begin("wire.flush")
	err := c.client.FlushCorrections()
	c.tr.end()
	if err == nil && (r+1)%pollEvery == 0 {
		c.tr.begin("wire.poll")
		_, err = c.client.PollFeedback()
		c.tr.end()
	}
	if err != nil {
		return err
	}
	c.rounds = r + 1
	return nil
}

// armed is the production configuration: NetworkedSource streams with
// origin stamps and private trace journals, queries beside writes, and a
// kfserver with HTTP, tracing, the watchdog and the WAL all armed. It
// ends by SIGKILLing the server and recovering it from its WAL.
func armed(o options, traced bool) (*netRun, error) {
	ins := makeInputs(o.seed, o.scale.armedStreams, o.scale.block)
	n := &netRun{}
	var walDir string
	serverArgs := func() ([]string, error) {
		d, err := scratchDir(o, "wal")
		if err != nil {
			return nil, err
		}
		walDir = d
		// stale-after is far beyond any run: no healthy stream goes stale.
		return []string{"-http", "127.0.0.1:0", "-trace", "-stale-after", "1h", "-wal-dir", walDir}, nil
	}
	register := func(c *loadConn) error {
		for _, in := range c.inputs {
			j := trace.NewJournal(1, journalCap)
			j.SetEnabled(true)
			c.tr.begin("wire.register")
			ns, err := wire.NewNetworkedSource(c.client, source.Config{
				StreamID: in.id, Spec: in.kind.spec, Delta: in.kind.delta,
				Trace: j, Stamp: freshness.WallClock(),
			})
			c.tr.end()
			if err != nil {
				return fmt.Errorf("register %s: %w", in.id, err)
			}
			c.nsrcs = append(c.nsrcs, ns)
		}
		return nil
	}
	srv, err := setUpRepeated(o, ins, traced, serverArgs, register, n)
	if err != nil {
		return nil, err
	}
	defer tearDown(srv, n.conns)
	if err := n.measure(o, srv, func(c *loadConn) error {
		return armedRound(o, c, &n.chk)
	}); err != nil {
		return nil, err
	}
	var driven int64
	for _, c := range n.conns {
		for _, ns := range c.nsrcs {
			c.tr.begin("wire.send_trace")
			err := ns.FlushTrace()
			c.tr.end()
			if err != nil {
				return nil, fmt.Errorf("flush trace: %w", err)
			}
			st := ns.Stats()
			n.sent += st.Sent
			driven += st.Ticks
		}
	}
	n.sweep()
	// The same exposition is served at /metrics; the checks read it from
	// there when the wire fetch fails.
	text, ok := n.fetchMetrics()
	if !ok {
		if text, err = srv.httpMetrics(); err != nil {
			return nil, err
		}
	}
	sums := promSums(text, "corrections_sent_total", "audit_delta_violations_total", "audit_ticks_total")
	n.chk.check(checkEqual("corrections_sent_total", sums["corrections_sent_total"], n.sent))
	n.chk.check(checkEqual("audit_delta_violations_total", sums["audit_delta_violations_total"], 0))
	n.chk.check(checkEqual("audit_ticks_total", sums["audit_ticks_total"], driven))
	if n.peakRSS, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}

	time.Sleep(armedFlushWait)
	tearDown(srv, n.conns)
	if traced {
		if n.walCopy, err = copyDir(o, walDir); err != nil {
			return nil, err
		}
	}
	if err := n.recover(o, walDir); err != nil {
		return nil, err
	}
	for _, c := range n.conns {
		n.spans.add(c.tr)
	}
	return n, nil
}

// armedRound is one lock-step round of an armed connection: every
// NetworkedSource observes the next tick (polling, pinging and shipping
// trace batches exactly as the library schedules them), one flush, then
// queries of a rotating few of the connection's own streams at that tick.
func armedRound(o options, c *loadConn, chk *checker) error {
	r := c.rounds
	var z [1]float64
	for i, ns := range c.nsrcs {
		z[0] = c.inputs[i].at(r)
		c.tr.begin("wire.networked_observe")
		_, err := ns.Observe(r, z[:])
		c.tr.end()
		if err != nil {
			return err
		}
	}
	c.tr.begin("wire.flush")
	err := c.client.FlushCorrections()
	c.tr.end()
	if err != nil {
		return err
	}
	if rtt := c.client.LastRTT(); rtt != c.lastRTT {
		c.pings = append(c.pings, rtt)
		c.lastRTT = rtt
	}
	for k := 0; k < o.scale.queries; k++ {
		in := c.inputs[c.nextQ%len(c.inputs)]
		c.nextQ++
		c.tr.begin("wire.query")
		t0 := time.Now()
		ans, err := c.client.Query(in.id, r)
		c.queries = append(c.queries, time.Since(t0))
		c.tr.end()
		if err != nil {
			return err
		}
		chk.check(checkAnswer(ans, in.id, r, in.at(r), in.kind.delta))
	}
	c.rounds = r + 1
	return nil
}

// recover restarts kfserver on the killed server's WAL directory, times
// it to its first correct answer, and checks every stream answers as it
// did before the kill.
func (n *netRun) recover(o options, walDir string) error {
	start := time.Now()
	srv, err := startServer(o, "-http", "127.0.0.1:0", "-trace", "-stale-after", "1h", "-wal-dir", walDir)
	if err != nil {
		return err
	}
	defer srv.kill()
	mc, err := dialMetered(srv.addr, 0)
	if err != nil {
		return err
	}
	defer mc.Close()
	client := wire.NewClient(mc)
	first := true
	for _, c := range n.conns {
		for i, in := range c.inputs {
			want := c.answers[i]
			n.attempted++
			ans, err := client.Query(in.id, c.rounds-1)
			if first {
				n.recovery = time.Since(start)
				first = false
			}
			if err != nil {
				n.failed++
				logf("recovered query %s: %v", in.id, err)
				continue
			}
			n.chk.check(sameAnswer(want, ans))
			n.chk.check(checkAnswer(ans, in.id, c.rounds-1, in.at(c.rounds-1), in.kind.delta))
		}
	}
	return nil
}

// copyDir copies a flat directory (a WAL) into a new scratch directory.
func copyDir(o options, src string) (string, error) {
	dst, err := scratchDir(o, "walcopy")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}

func durSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
