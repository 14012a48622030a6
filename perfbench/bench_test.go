package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return spec
}

// runTiny runs one workload at smoke size and returns its exit code and
// parsed result line.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(append([]string{"--smoke", "--seconds", "1", "--out", t.TempDir()}, args...), &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if len(lines) > 0 {
		_ = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
	}
	return code, res, out.String()
}

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json names appears with
// its unit and the run passes its correctness gates.
func TestSmokeEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				code, res, out := runTiny(t, "--workload", w.Name, "--seed", "7", "--trace", trace)
				if code != 0 || !res.Correct || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestBrokenChecksFailTheRun breaks one correctness property at a time
// and expects the run to be reported incorrect with a non-zero exit.
func TestBrokenChecksFailTheRun(t *testing.T) {
	cases := []struct{ workload, inject, want string }{
		{"kv-steady", "fork", "diverges"},
		{"kv-steady", "kv-mismatch", "store differs"},
		{"kv-steady", "early-ack", "precedes"},
		{"gossip-n31-sim", "fork", "diverges"},
		{"gossip-n31-sim", "kv-mismatch", "store differs"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.workload+"/"+tc.inject, func(t *testing.T) {
			code, res, out := runTiny(t, "--workload", tc.workload, "--seed", "3", "--inject", tc.inject)
			if code == 0 || res.Correct {
				t.Fatalf("broken %s passed: exit %d, result %+v\n%s", tc.inject, code, res, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Fatalf("broken %s failed for another reason than %q:\n%s", tc.inject, tc.want, out)
			}
		})
	}
}

// TestSeedFixesInputs checks that key dealing and the load schedule are
// pure functions of the seed.
func TestSeedFixesInputs(t *testing.T) {
	a, b := make([]byte, 64), make([]byte, 64)
	_, _ = newSeedReader(5, "x").Read(a)
	_, _ = newSeedReader(5, "x").Read(b)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed, different bytes")
	}
	_, _ = newSeedReader(6, "x").Read(b)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds, same bytes")
	}
	if subSeed(5, "crash") == subSeed(5, "topology") {
		t.Fatal("streams of one seed collide")
	}
}

// TestSimReplaysIdentically runs one seed twice: the simulation must be
// a pure function of its seed, or its virtual-time figures mean nothing.
func TestSimReplaysIdentically(t *testing.T) {
	var errs checkErr
	var prints []string
	for i := 0; i < 2; i++ {
		c, err := buildSim(11, nil, &errs)
		if err != nil {
			t.Fatal(err)
		}
		prints = append(prints, runSim(c, 8).fingerprint)
	}
	if !errs.ok() {
		t.Fatal(errs.String())
	}
	if prints[0] != prints[1] {
		t.Fatalf("replay diverged: %s vs %s", prints[0], prints[1])
	}
}
