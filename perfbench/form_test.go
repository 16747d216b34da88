package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// declared is the part of BENCHMARK.json this test holds the benchmark to.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	check := func(kind string, got map[string]string, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark declares %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if got[m.Name] != m.Unit {
				t.Errorf("%s %s: benchmark unit %q, BENCHMARK.json %q", kind, m.Name, got[m.Name], m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
	if len(d.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, benchmark %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		if i < len(workloads) && w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
}

// TestOutputForm runs every runnable workload, untraced and traced, at a
// tiny scale against freshly built binaries, and fails unless each result
// carries every declared metric with its declared unit and the
// attempted/failed counts.
func TestOutputForm(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs every workload")
	}
	d := readDeclared(t)
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/kfserver", "./cmd/streamkf")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	tiny := scale{ingestStreams: 40, armedStreams: 20, block: 64, setups: 2, queries: 2,
		suiteTicks: 1000, recordBytes: 1 << 20}
	for _, w := range runnable {
		for _, traced := range []bool{false, true} {
			o := options{workload: w, seed: 3, seconds: 0.2, trace: traced,
				bin: bin, work: t.TempDir(), scale: tiny}
			res, err := run(o)
			cleanupAll()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := back[k]; !ok {
					t.Errorf("%s traced=%v: result has no %q", w, traced, k)
				}
			}
			if len(back) != 4 {
				t.Errorf("%s traced=%v: result has %d keys, want 4", w, traced, len(back))
			}
			if res.Attempted < 1 || res.Failed < 0 || res.Failed > res.Attempted {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w, traced, res.Attempted, res.Failed)
			}
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not printed", w, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, declared %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
