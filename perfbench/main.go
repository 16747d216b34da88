// Command perfbench is kalmanstream's end-to-end benchmark. It builds
// nothing itself (run.sh builds kfserver and streamkf from the tree and
// passes their directory in -bin); it runs one workload against the real
// binaries and prints one JSON result line:
//
//	perfbench -bin DIR --workload ingest|armed|paper --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no spans recorded. With --trace 1 it carries the per-layer metrics of
// the traced ladder (ladder.go). -steady N runs every workload N times,
// alternating, and prints each metric's median and quartiles.
//
// README.md documents the workloads, the metrics and the layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer declare every metric with its unit; BENCHMARK.json
// lists the same names and units (form_test.go holds them equal).
var endToEnd = map[string]string{
	"ticks_per_ref_s":            "ticks/ref_s",
	"server_cpu_ref_ns_per_tick": "ref_ns",
	"peak_rss_mb":                "MB",
	"wire_bytes_per_tick":        "B",
	"corrections_per_ktick":      "count",
	"setup_s":                    "s",
}

var perLayer = func() map[string]string {
	m := map[string]string{
		"source.observe_ns":                      "ns",
		"netsim.bytes_per_correction":            "B",
		"wire.send_ns":                           "ns",
		"wire.flush_ns":                          "ns",
		"wire.corrections_per_frame":             "count",
		"wire.flush_wait_share":                  "ratio",
		"wire.poll_ns":                           "ns",
		"wire.poll_wait_share":                   "ratio",
		"wire.networked_observe_ns":              "ns",
		"wire.ping_us":                           "us",
		"wire.send_trace_us":                     "us",
		"wire.query_us":                          "us",
		"wire.query_p50_us":                      "us",
		"wire.query_p99_us":                      "us",
		"wire.register_us":                       "us",
		"kfserver.recovery_s":                    "s",
		"netsim.decode_ns_per_correction":        "ns",
		"server.tick_stream_ns":                  "ns",
		"server.apply_ns":                        "ns",
		"server.value_ns":                        "ns",
		"wire.apply_ns_per_correction.bare":      "ns",
		"wire.apply_ns_per_correction.trace":     "ns",
		"wire.apply_ns_per_correction.diag":      "ns",
		"wire.apply_ns_per_correction.freshness": "ns",
		"wire.apply_ns_per_correction.wal":       "ns",
		"wire.apply_ns_per_correction.all":       "ns",
		"trace.ingest_ns_per_event":              "ns",
		"wire.server_query_ns":                   "ns",
		"wal.recover_ms":                         "ms",
		"history.tick_ms":                        "ms",
		"health.tick_us":                         "us",
		"telemetry.scrape_ms":                    "ms",
		"predictor.step_ns":                      "ns",
		"predictor.correct_ns":                   "ns",
		"predictor.predict_ns":                   "ns",
		"harness.suite_s":                        "s",
		"harness.alloc_mb":                       "MB",
		"bench.trace_slowdown.ingest":            "ratio",
		"bench.trace_slowdown.armed":             "ratio",
	}
	for i := 1; i <= 13; i++ {
		m[fmt.Sprintf("harness.E%d_s", i)] = "s"
	}
	return m
}()

// workloads are the declared workloads (BENCHMARK.json), in the order
// -steady alternates them.
var workloads = []string{"ingest", "paper"}

// runnable adds armed, which runs on its own and inside the traced ladder
// but is not declared: while PollFeedback waits out its deadline, its
// throughput follows the host's timer latency and moved by 18–24% from
// run to run (README.md).
var runnable = append(slices.Clone(workloads), "armed")

// options is one invocation's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string // directory holding kfserver and streamkf
	work     string // scratch directory for WAL dirs and trace files
	scale    scale
}

// scale sizes a run. fullScale is what the benchmark measures;
// form_test.go shrinks it so every workload finishes in seconds.
type scale struct {
	ingestStreams int   // streams on the ingest workload
	armedStreams  int   // streams on the armed workload
	block         int   // generated ticks per stream, replayed cyclically
	setups        int   // set-ups per run; setup_s is their median
	queries       int   // armed queries per connection per round
	suiteTicks    int64 // E-suite stream length (0 = streamkf's default)
	recordBytes   int   // client→server bytes kept per connection for the ladder's replays
}

var fullScale = scale{
	ingestStreams: 4096,
	armedStreams:  512,
	block:         512,
	setups:        5,
	queries:       4,
	recordBytes:   4 << 20,
}

func main() {
	var o options
	var traceFlag, steady int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, armed or paper")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced ladder and prints the per-layer metrics")
	flag.StringVar(&o.bin, "bin", "", "directory holding the kfserver and streamkf binaries")
	flag.StringVar(&o.work, "work", ".bench_build/perfbench", "scratch directory for WAL directories and trace files")
	flag.IntVar(&steady, "steady", 0, "run every workload this many times, alternating, and print each metric's quartiles")
	flag.Parse()
	o.trace = traceFlag == 1
	o.scale = fullScale

	if o.bin == "" {
		fatalf("-bin is required")
	}
	var err error
	if o.work, err = filepath.Abs(o.work); err != nil {
		fatalf("%v", err)
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	if steady > 0 {
		if err := runSteady(o, steady); err != nil {
			fatalf("%v", err)
		}
		return
	}

	// An interrupt must not leave a kfserver running or a WAL directory
	// behind: reap every child, remove scratch directories, then exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		cleanupAll()
		fatalf("interrupted by %v", s)
	}()

	res, err := run(o)
	cleanupAll()
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

// run executes one workload, traced or not.
func run(o options) (*result, error) {
	if !slices.Contains(runnable, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want ingest, armed or paper)", o.workload)
	}
	for _, b := range []string{"kfserver", "streamkf"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil {
			return nil, fmt.Errorf("binary missing: %w", err)
		}
	}
	if o.trace {
		return runLadder(o)
	}
	if o.workload == "paper" {
		return runPaper(o)
	}
	network := ingest
	if o.workload == "armed" {
		network = armed
	}
	n, err := network(o, false)
	if err != nil {
		return nil, err
	}
	n.chk.report(o.workload)
	return n.result(), nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// logf writes progress to standard error, keeping standard output for
// the summary and the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
