package main

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"kalmanstream/internal/wire"
)

// checker counts correctness checks. The expected values come from the
// generated inputs and the load generator's own counts, never from the
// program under test.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     []string // the first few failures, for the report
}

func (c *checker) check(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	if len(c.first) < 8 {
		c.first = append(c.first, err.Error())
	}
}

func (c *checker) report(workload string) {
	logf("%s: %d checks, %d failed", workload, c.attempted, c.failed)
	for _, f := range c.first {
		logf("  check failed: %s", f)
	}
}

// checkAnswer verifies one bounded answer against the generated value:
// the bound must be 0 or the stream's δ; a bound-0 answer must be the
// generated value exactly; any answer must lie within its bound under
// the gate's L∞ norm.
func checkAnswer(ans wire.AnswerPayload, id string, tick int64, value, delta float64) error {
	if ans.ID != id || ans.Tick != tick {
		return fmt.Errorf("answer for %s@%d names %s@%d", id, tick, ans.ID, ans.Tick)
	}
	if len(ans.Estimate) != 1 {
		return fmt.Errorf("%s@%d: estimate has %d components, want 1", id, tick, len(ans.Estimate))
	}
	est := ans.Estimate[0]
	switch ans.Bound {
	case 0:
		if est != value {
			return fmt.Errorf("%s@%d: exact answer %v, generated %v", id, tick, est, value)
		}
	case delta:
		if math.IsNaN(est) || math.Abs(est-value) > delta {
			return fmt.Errorf("%s@%d: |%v - %v| exceeds δ=%v", id, tick, est, value, delta)
		}
	default:
		return fmt.Errorf("%s@%d: bound %v is neither 0 nor δ=%v", id, tick, ans.Bound, delta)
	}
	return nil
}

// sameAnswer verifies a post-recovery answer equals the pre-kill one.
func sameAnswer(before, after wire.AnswerPayload) error {
	if before.ID != after.ID || before.Tick != after.Tick || before.Bound != after.Bound ||
		len(before.Estimate) != len(after.Estimate) {
		return fmt.Errorf("%s@%d: recovered answer %+v differs from pre-kill %+v", before.ID, before.Tick, after, before)
	}
	for i := range before.Estimate {
		if before.Estimate[i] != after.Estimate[i] {
			return fmt.Errorf("%s@%d: recovered estimate %v differs from pre-kill %v",
				before.ID, before.Tick, after.Estimate, before.Estimate)
		}
	}
	return nil
}

// promSums sums each named series of a Prometheus text exposition over
// all its label sets.
func promSums(text string, names ...string) map[string]float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64, len(names))
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !want[name] {
			continue
		}
		rest := line[len(name):]
		if strings.HasPrefix(rest, "{") {
			rest = rest[strings.LastIndexByte(rest, '}')+1:]
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if v, err := strconv.ParseFloat(f[0], 64); err == nil {
			out[name] += v
		}
	}
	return out
}

// checkEqual verifies a server-reported total against the load
// generator's own count.
func checkEqual(what string, server float64, counted int64) error {
	if server != float64(counted) {
		return fmt.Errorf("%s: server reports %v, load generator counted %d", what, server, counted)
	}
	return nil
}
