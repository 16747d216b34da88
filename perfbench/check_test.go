package main

import (
	"strconv"
	"strings"
	"testing"

	"kalmanstream/internal/wire"
)

func TestCheckAnswerCatchesPlantedWrongAnswers(t *testing.T) {
	const delta = 0.5
	ok := []wire.AnswerPayload{
		{ID: "s", Tick: 7, Estimate: []float64{10.25}, Bound: 0},
		{ID: "s", Tick: 7, Estimate: []float64{10.6}, Bound: delta},
	}
	for _, a := range ok {
		if err := checkAnswer(a, "s", 7, 10.25, delta); err != nil {
			t.Errorf("correct answer %+v rejected: %v", a, err)
		}
	}
	wrong := map[string]wire.AnswerPayload{
		"outside δ":          {ID: "s", Tick: 7, Estimate: []float64{10.76}, Bound: delta},
		"inexact at bound 0": {ID: "s", Tick: 7, Estimate: []float64{10.2500001}, Bound: 0},
		"bound neither 0/δ":  {ID: "s", Tick: 7, Estimate: []float64{10.25}, Bound: 1},
		"other stream":       {ID: "t", Tick: 7, Estimate: []float64{10.25}, Bound: 0},
		"other tick":         {ID: "s", Tick: 6, Estimate: []float64{10.25}, Bound: 0},
		"no estimate":        {ID: "s", Tick: 7, Bound: delta},
	}
	for name, a := range wrong {
		if checkAnswer(a, "s", 7, 10.25, delta) == nil {
			t.Errorf("%s: planted wrong answer %+v accepted", name, a)
		}
	}
}

func TestSameAnswerCatchesRecoveryDrift(t *testing.T) {
	before := wire.AnswerPayload{ID: "s", Tick: 9, Estimate: []float64{1.5}, Bound: 0.5}
	if err := sameAnswer(before, before); err != nil {
		t.Fatalf("identical answers rejected: %v", err)
	}
	after := before
	after.Estimate = []float64{1.5000000001}
	if sameAnswer(before, after) == nil {
		t.Error("recovered estimate that drifted was accepted")
	}
	after = before
	after.Bound = 0
	if sameAnswer(before, after) == nil {
		t.Error("recovered answer with another bound was accepted")
	}
}

func TestServerCountChecks(t *testing.T) {
	text := `# HELP corrections_sent_total corrections applied per stream
corrections_sent_total{stream="a"} 12
corrections_sent_total{stream="b"} 30
audit_delta_violations_total{stream="a"} 0
audit_delta_violations_total{stream="b"} 1
wire_connections_total 2
`
	sums := promSums(text, "corrections_sent_total", "audit_delta_violations_total", "wire_connections_total")
	if err := checkEqual("sent", sums["corrections_sent_total"], 42); err != nil {
		t.Errorf("matching sum rejected: %v", err)
	}
	if checkEqual("sent", sums["corrections_sent_total"], 41) == nil {
		t.Error("sent sum that misses a correction was accepted")
	}
	if checkEqual("violations", sums["audit_delta_violations_total"], 0) == nil {
		t.Error("a δ violation was accepted")
	}
	if sums["wire_connections_total"] != 2 {
		t.Errorf("unlabelled series summed to %v, want 2", sums["wire_connections_total"])
	}
}

// suiteFixture has the shape of `streamkf run -stats all`: every section
// header, the tables the checks read, and one telemetry table.
func suiteFixture() string {
	var b strings.Builder
	for e := 1; e <= experiments; e++ {
		b.WriteString("== E" + strconv.Itoa(e) + ": title ==\n\n")
		switch e {
		case 1:
			b.WriteString(`E1: sine+noise, T=50000, δ=2.95 (4× volatility)
method       msgs  suppression  rmse   max-err(suppr)  violations
-----------------------------------------------------------------
cache        2937  94.1%        1.407  2.953           0
kalman       1308  97.4%        1.254  2.953           0
  note: max-err(suppr) must be ≤ δ: the hard bound.

E1 telemetry (runtime counters)
metric                        labels          value  count  mean  p95
----------------------------------------------------------------------
corrections_sent_total        {stream="sine"}  805
corrections_suppressed_total  {stream="sine"}  9195
link_bytes_total              {link="link"}    20125

`)
		case 12:
			b.WriteString(`E12: 1-D random walk (q=0.25 r=0.04), intervals on suppressed ticks, T=50000
δ/vol  conf   coverage  mean width  width/δ  model-tighter
------------------------------------------------------------
1       90.0%  100.0%    0.572       1.00x     0.0%
3       90.0%  98.5%     1.614       0.94x     26.9%

`)
		case 13:
			b.WriteString(`E13: sine+noise through a lossy link, constant-velocity KF, δ=1, T=50000
loss   mode    violations  msgs delivered  bytes   bytes/msg
------------------------------------------------------------
0.0%   plain   0.0%        3186            79650   25
10.0%  plain   12.2%       2847            71175   25

`)
		}
	}
	return b.String()
}

func failures(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}

func TestSuiteChecksCatchPlantedWrongAnswers(t *testing.T) {
	good := suiteFixture()
	s := parseSuite(good)
	if n := failures(s.check()); n != 0 {
		t.Fatalf("fixture fails %d checks: %v", n, s.check())
	}
	if s.ticks != 10000 || s.sent != 805 || s.linkBytes != 20125 {
		t.Errorf("telemetry sums ticks=%v sent=%v bytes=%v, want 10000, 805, 20125", s.ticks, s.sent, s.linkBytes)
	}
	planted := map[string][2]string{
		"missing section":        {"== E7: title ==", "== E7 missing"},
		"loss-free violation E1": {"2.953           0\nkalman", "2.953           2\nkalman"},
		"loss-free violation":    {"0.0%   plain   0.0%", "0.0%   plain   0.3%"},
		"max-err beyond δ":       {"1.254  2.953", "1.254  2.961"},
		"coverage below nominal": {"90.0%  98.5%", "90.0%  89.5%"},
	}
	for name, p := range planted {
		bad := strings.Replace(good, p[0], p[1], 1)
		if bad == good {
			t.Fatalf("%s: fixture has no %q", name, p[0])
		}
		if failures(parseSuite(bad).check()) == 0 {
			t.Errorf("%s: planted wrong output accepted", name)
		}
	}
	// A lossy row's violations are the experiment's measurement, not a
	// broken promise.
	lossy := strings.Replace(good, "10.0%  plain   12.2%", "10.0%  plain   40.0%", 1)
	if n := failures(parseSuite(lossy).check()); n != 0 {
		t.Errorf("lossy-row violations failed %d checks", n)
	}
}

func TestPyQuartilesMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := pyQuartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v, want [2.75 5.5 8.25]", q)
	}
}
