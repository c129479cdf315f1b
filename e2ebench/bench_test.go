package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// small shrinks a workload to a seconds-scale variant: same shape and
// rates, a fraction of the state.
func small(s spec) spec {
	s.Wallets = min(s.Wallets, 600)
	s.SettledAuctions = min(s.SettledAuctions, 6)
	s.OpenAuctions = min(s.OpenAuctions, 6)
	s.HistoryWallets = min(s.HistoryWallets, 40)
	s.WarmSeconds = 0.3
	s.PeakSeconds = 6
	return s
}

type defJSON struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile reads the repository's BENCHMARK.json.
func benchmarkFile(t *testing.T) (workloads []string, e2e, layer []defJSON) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []defJSON               `json:"end_to_end"`
		PerLayer  []defJSON               `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, f.EndToEnd, f.PerLayer
}

func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	workloads, e2e, layer := benchmarkFile(t)
	if len(workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(workloads), len(specs))
	}
	for i, s := range specs {
		if workloads[i] != s.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, workloads[i], s.Name)
		}
	}
	same := func(kind string, file []defJSON, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layer, perLayer)
}

// TestSmallWorkloads runs a seconds-scale variant of every workload in
// both modes and checks the printed result: every named metric with
// its unit, nothing else, and the correctness gate passed.
func TestSmallWorkloads(t *testing.T) {
	_, e2e, layer := benchmarkFile(t)
	for _, s := range specs {
		for _, trace := range []bool{false, true} {
			s, trace := small(s), trace
			name := s.Name + map[bool]string{false: "/trace0", true: "/trace1"}[trace]
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := execute(options{workload: s.Name, seed: 11, seconds: 1, trace: trace, buildDir: t.TempDir(), commit: "test"}, s, &log)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("gate: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := e2e
				if trace {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok {
						t.Errorf("metric %s missing", d.Name)
					} else if m.Unit != d.Unit {
						t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
					}
				}
				if !trace {
					for _, d := range want {
						if res.Metrics[d.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, res.Metrics[d.Name].Value)
						}
					}
				}
			})
		}
	}
}

// TestGateCatchesWrongFingerprint runs a small phase, checks the gate
// passes against the true sequential replay, and fails against a wrong
// expected fingerprint.
func TestGateCatchesWrongFingerprint(t *testing.T) {
	s := small(specs[1])
	p := buildPlan(s, 5, 1, 1)
	h, err := openHarness(p, nil, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.preload()
	r := h.runPhase(p.timed[0], openLoopGrace)
	tr := newTruth(p, h.blocks)
	if problems := h.verify([]*phaseRun{r}, tr, replayFingerprint(h.blocks)); len(problems) != 0 {
		t.Fatalf("gate failed on a correct run: %v", problems)
	}
	problems := h.verify([]*phaseRun{r}, tr, strings.Repeat("0", 64))
	if len(problems) != 1 || !strings.Contains(problems[0], "fingerprint") {
		t.Fatalf("gate with a wrong expected fingerprint reported %v, want one fingerprint problem", problems)
	}
}
