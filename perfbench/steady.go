package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs every workload n times, alternating workloads and using
// seeds o.seed, o.seed+1, …, each run in a child process of its own, then
// prints every end-to-end metric's median, quartiles and spread (the
// interquartile range as a share of the median) per workload. The
// quartiles follow Python's statistics.quantiles(values, n=4), the
// definition the bounds in BENCHMARK.json are held to.
func runSteady(o options, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string]map[string][]float64)
	failedShare := make(map[string][]float64)
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			seed := o.seed + int64(i)
			cmd := exec.Command(self, "-bin", o.bin, "-work", o.work, "--workload", w,
				"--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect output", w, seed)
			}
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for name, m := range res.Metrics {
				values[w][name] = append(values[w][name], m.Value)
			}
			failedShare[w] = append(failedShare[w], float64(res.Failed)/float64(res.Attempted))
			logf("steady %s seed %d done", w, seed)
		}
	}
	fmt.Printf("%-8s %-24s %14s %14s %14s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, w := range workloads {
		for _, name := range sortedKeys(values[w]) {
			q := pyQuartiles(values[w][name])
			fmt.Printf("%-8s %-24s %14.6g %14.6g %14.6g %7.2f%%\n", w, name, q[0], q[1], q[2], 100*(q[2]-q[0])/q[1])
		}
		fmt.Printf("%-8s %-24s %v\n", w, "failed/attempted", failedShare[w])
	}
	return nil
}

// lastResult decodes the result from a run's last line of output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &r, nil
}

// pyQuartiles is statistics.quantiles(xs, n=4) with Python's default
// "exclusive" method.
func pyQuartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var q [3]float64
	ld := len(s)
	if ld < 2 {
		for i := range q {
			q[i] = s[0]
		}
		return q
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
