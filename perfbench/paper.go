package main

import (
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// experiments is the number of E-suite sections `streamkf run all`
// must print.
const experiments = 13

// paperSuiteSeconds is how long one suite, with its reference windows,
// takes on the quiet host; a run does one suite per paperSuiteSeconds of
// its --seconds, at least one, so that every run does the same work
// however fast the host is that day.
const paperSuiteSeconds = 24

// runPaper is the batch workload: the full E-suite, serially, at its
// default size. It has no network at all. Each experiment runs in a
// `streamkf run -stats E<k>` child of its own, followed by a reference
// window (calib.go); -stats adds the experiment's telemetry table, from
// which the suite's own gate counts (ticks, corrections, simulated-link
// bytes) are read. Interference from elsewhere on the host only ever
// slows an experiment down, so the suite's time and CPU are the sums of
// each experiment's best over the run, put in the run's reference units;
// the other figures are medians over the suites.
func runPaper(o options) (*result, error) {
	bin := filepath.Join(o.bin, "streamkf")
	args := []string{"run", "-stats"}
	if o.scale.suiteTicks > 0 {
		args = append(args, "-ticks", strconv.FormatInt(o.scale.suiteTicks, 10))
	}
	ref := newRefKernel(1)
	refLen := min(refWindow, time.Duration(o.seconds*float64(time.Second))/(4*experiments))
	first, err := ref.run(refLen)
	if err != nil {
		return nil, err
	}
	refs := []refSample{first}

	var chk checker
	var setups, ticks, rss, bytesPerTick, perKtick []float64
	bestWall := make([]time.Duration, experiments)
	bestCPU := make([]time.Duration, experiments)
	var attempted, failed int64
	for range max(1, int(o.seconds/paperSuiteSeconds)) {
		var out []byte
		var maxRSS float64
		for e := range experiments {
			// setup_s is the median start-up of `streamkf list`, timed
			// before every experiment: start-ups timed back to back at
			// the start of a run were all slow together in some runs
			// (15–19 ms against 6–7 ms), and the median followed them.
			_, start, _, _, err := runChild(bin, "list")
			if err != nil {
				return nil, err
			}
			setups = append(setups, start.Seconds())
			eout, wall, cpu, peak, err := runChild(bin, append(args[:len(args):len(args)], fmt.Sprintf("E%d", e+1))...)
			if err != nil {
				return nil, err
			}
			s, err := ref.run(refLen)
			if err != nil {
				return nil, err
			}
			refs = append(refs, s)
			out = append(out, eout...)
			if bestWall[e] == 0 || wall < bestWall[e] {
				bestWall[e] = wall
			}
			if bestCPU[e] == 0 || cpu < bestCPU[e] {
				bestCPU[e] = cpu
			}
			maxRSS = max(maxRSS, peak)
		}
		s := parseSuite(string(out))
		present := int64(len(s.sections))
		attempted += experiments
		failed += experiments - present
		for _, err := range s.check() {
			chk.check(err)
		}
		if s.ticks == 0 {
			return nil, fmt.Errorf("suite reported no gate ticks")
		}
		ticks = append(ticks, s.ticks)
		rss = append(rss, maxRSS)
		bytesPerTick = append(bytesPerTick, s.linkBytes/s.ticks)
		perKtick = append(perKtick, 1000*s.sent/s.ticks)
	}
	chk.report("paper")
	var wall, cpu time.Duration
	for e := range experiments {
		wall += bestWall[e]
		cpu += bestCPU[e]
	}
	suiteTicks := median(ticks)
	wallScale, cpuScale, wallDiv, cpuMul := refScale(1, refs)
	logf("paper: %.0f ticks/s and %.0f ns/tick; reference scale %.3f wall, %.3f CPU",
		suiteTicks/wall.Seconds(), float64(cpu.Nanoseconds())/suiteTicks, wallScale, cpuScale)
	return &result{
		Correct:   chk.failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"ticks_per_ref_s":            {suiteTicks / wall.Seconds() / wallDiv, endToEnd["ticks_per_ref_s"]},
			"server_cpu_ref_ns_per_tick": {float64(cpu.Nanoseconds()) * cpuMul / suiteTicks, endToEnd["server_cpu_ref_ns_per_tick"]},
			"peak_rss_mb":                {median(rss), endToEnd["peak_rss_mb"]},
			"wire_bytes_per_tick":        {median(bytesPerTick), endToEnd["wire_bytes_per_tick"]},
			"corrections_per_ktick":      {median(perKtick), endToEnd["corrections_per_ktick"]},
			"setup_s":                    {median(setups), endToEnd["setup_s"]},
		},
	}, nil
}

// suite is one parsed `streamkf run -stats all` output.
type suite struct {
	sections  map[int]bool
	tables    []table
	ticks     float64 // gate ticks: corrections sent + suppressed
	sent      float64
	linkBytes float64
}

// table is one printed result table: the section it belongs to, its
// title line, column names, and rows of cells.
type table struct {
	section int
	title   string
	cols    []string
	rows    [][]string
}

var (
	sectionRe = regexp.MustCompile(`^== E(\d+):`)
	cellSep   = regexp.MustCompile(`\s{2,}`)
	deltaRe   = regexp.MustCompile(`δ=([0-9.]+)`)
)

func parseSuite(out string) *suite {
	s := &suite{sections: make(map[int]bool)}
	lines := strings.Split(out, "\n")
	section := 0
	for i := 0; i < len(lines); i++ {
		if m := sectionRe.FindStringSubmatch(lines[i]); m != nil {
			section, _ = strconv.Atoi(m[1])
			s.sections[section] = true
			continue
		}
		// A table is a title, a header, then a line of dashes.
		if i+2 >= len(lines) || !strings.HasPrefix(lines[i+2], "---") {
			continue
		}
		t := table{section: section, title: lines[i], cols: splitCells(lines[i+1])}
		i += 3
		for ; i < len(lines); i++ {
			l := lines[i]
			if strings.TrimSpace(l) == "" || strings.HasPrefix(l, "  note:") {
				break
			}
			t.rows = append(t.rows, splitCells(l))
		}
		s.tables = append(s.tables, t)
		s.addTelemetry(t)
	}
	return s
}

func splitCells(line string) []string {
	return cellSep.Split(strings.TrimSpace(line), -1)
}

// addTelemetry folds an experiment's telemetry table into the suite's
// gate and link counts.
func (s *suite) addTelemetry(t table) {
	if len(t.cols) < 3 || t.cols[0] != "metric" || t.cols[2] != "value" {
		return
	}
	for _, r := range t.rows {
		if len(r) < 3 {
			continue
		}
		v, err := strconv.ParseFloat(r[2], 64)
		if err != nil {
			continue
		}
		switch r[0] {
		case "corrections_sent_total":
			s.sent += v
			s.ticks += v
		case "corrections_suppressed_total":
			s.ticks += v
		case "link_bytes_total":
			s.linkBytes += v
		}
	}
}

func (t *table) col(name string) int {
	for i, c := range t.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// percent parses "12.5%" or "12.5" as a number.
func percent(cell string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
}

// halfUnit is half a unit in the last printed digit of a number: the
// rounding error the printed value may carry.
func halfUnit(cell string) float64 {
	i := strings.IndexByte(cell, '.')
	if i < 0 {
		return 0.5
	}
	return 0.5 * math.Pow10(-(len(cell) - i - 1))
}

// check verifies the suite against the paper's promises: every section
// present, no δ violation on a loss-free row, E1's worst suppressed
// error within δ, and E12's interval coverage at or above nominal.
func (s *suite) check() []error {
	var errs []error
	for e := 1; e <= experiments; e++ {
		if !s.sections[e] {
			errs = append(errs, fmt.Errorf("section E%d missing", e))
		} else {
			errs = append(errs, nil)
		}
	}
	for _, t := range s.tables {
		vi := t.col("violations")
		if vi < 0 {
			continue
		}
		li := t.col("loss")
		for _, r := range t.rows {
			if vi >= len(r) {
				errs = append(errs, fmt.Errorf("E%d: short row %q", t.section, r))
				continue
			}
			if li >= 0 {
				loss, err := percent(r[li])
				if err != nil || loss != 0 {
					continue
				}
			}
			v, err := percent(r[vi])
			if err != nil || v != 0 {
				errs = append(errs, fmt.Errorf("E%d %q: loss-free row has violations %q", t.section, r[0], r[vi]))
				continue
			}
			errs = append(errs, nil)
		}
	}
	errs = append(errs, s.checkE1(), s.checkE12())
	return errs
}

func (s *suite) checkE1() error {
	for _, t := range s.tables {
		mi := t.col("max-err(suppr)")
		if t.section != 1 || mi < 0 {
			continue
		}
		m := deltaRe.FindStringSubmatch(t.title)
		if m == nil {
			return fmt.Errorf("E1: no δ in title %q", t.title)
		}
		delta, _ := strconv.ParseFloat(m[1], 64)
		for _, r := range t.rows {
			if mi >= len(r) {
				return fmt.Errorf("E1: short row %q", r)
			}
			e, err := strconv.ParseFloat(r[mi], 64)
			if err != nil {
				return fmt.Errorf("E1 %q: max-err %q: %w", r[0], r[mi], err)
			}
			if e > delta+halfUnit(m[1])+halfUnit(r[mi]) {
				return fmt.Errorf("E1 %q: max-err(suppr) %v exceeds δ=%v", r[0], e, delta)
			}
		}
		return nil
	}
	return fmt.Errorf("E1: max-err(suppr) table missing")
}

func (s *suite) checkE12() error {
	for _, t := range s.tables {
		ci, cov := t.col("conf"), t.col("coverage")
		if t.section != 12 || ci < 0 || cov < 0 {
			continue
		}
		for _, r := range t.rows {
			if ci >= len(r) || cov >= len(r) {
				return fmt.Errorf("E12: short row %q", r)
			}
			conf, err1 := percent(r[ci])
			got, err2 := percent(r[cov])
			if err1 != nil || err2 != nil {
				return fmt.Errorf("E12: unparsable row %q", r)
			}
			if got < conf {
				return fmt.Errorf("E12 δ/vol %s: coverage %v%% below nominal %v%%", r[0], got, conf)
			}
		}
		return nil
	}
	return fmt.Errorf("E12: coverage table missing")
}
