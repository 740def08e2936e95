package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"optiflow/internal/cluster/proc"
)

func TestMain(m *testing.M) {
	// The cc-proc workload spawns its workers by re-executing the test
	// binary.
	proc.MaybeChildMode()
	os.Exit(m.Run())
}

// contract is the part of BENCHMARK.json the result line must honour.
type contract struct {
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

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	return c
}

// TestTinyRunsEmitEveryMetric runs every workload of BENCHMARK.json on
// tiny inputs, untraced and traced, and checks that the result line
// carries exactly the declared metrics with their units, with every
// job correct.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny", "--spans", t.TempDir()}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var r result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < len(scenarios) {
					t.Fatalf("correct=%t failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, out.String())
				}
				want := c.EndToEnd
				if trace == "1" {
					want = c.PerLayer
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json declares %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, declared %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestGateCatchesInjectedFaults shows the per-job gate is not vacuous:
// a wrong result fails every job, and a failure scheduled on a worker
// that does not exist (so it never strikes) fails every failure job.
func TestGateCatchesInjectedFaults(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name+"/wrong-result", func(t *testing.T) {
			b := tinyRun(t, w, config{corruptResult: true})
			for _, j := range b.jobs {
				if j.err == nil || !strings.Contains(j.err.Error(), "differ") {
					t.Errorf("%s passed the gate with a wrong result (err %v)", j.sc.metric(), j.err)
				}
			}
		})
		t.Run(w.name+"/disarmed-failure", func(t *testing.T) {
			b := tinyRun(t, w, config{disarmFailure: true})
			for _, j := range b.jobs {
				if j.sc.fail != (j.err != nil) {
					t.Errorf("%s: gate error %v", j.sc.metric(), j.err)
				}
			}
		})
	}
}

func tinyRun(t *testing.T, w workload, cfg config) *bench {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.tiny, cfg.setups = 5, 1, true, 1
	b, err := measure(w, cfg, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r := b.report(); r.correct || r.failed == 0 {
		t.Fatalf("report says correct=%t with %d failed jobs", r.correct, r.failed)
	}
	return b
}
