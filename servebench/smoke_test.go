package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// contract is the metric list of the repository's BENCHMARK.json.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMain lets the test binary serve as the benchmark's server
// processes, which the benchmark starts from its own executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-role" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at a tiny size: each run must pass its
// own checks and print every named metric with its unit, and two traced
// runs with the same seed must agree on the deterministic counts.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and may train the models")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"classify-cold", "analyze-cold", "classify-warm-routed"} {
		t.Run(name, func(t *testing.T) {
			o := options{root: "..", workload: name, seed: 11, seconds: 100 * time.Millisecond,
				setups: 2, size: size{fixed: 24, rest: 48}}
			res := runOK(t, o)
			checkMetrics(t, res, c.EndToEnd)

			o.trace = true
			a := runOK(t, o)
			checkMetrics(t, a, c.PerLayer)
			b := runOK(t, o)
			if !reflect.DeepEqual(a.counts, b.counts) {
				t.Errorf("same-seed traced runs disagree on counts:\n%v\n%v", a.counts, b.counts)
			}
			if a.counts["fixed_programs"] != 24 {
				t.Errorf("fixed list covered %d programs, want 24", a.counts["fixed_programs"])
			}
		})
	}
}

func runOK(t *testing.T, o options) *result {
	t.Helper()
	res, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("run not correct: %d of %d requests failed", res.Failed, res.Attempted)
	}
	return res
}

// checkMetrics decodes the printed result line and wants exactly the
// named metrics, each a value with the contract's unit.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(got.Metrics), len(want))
	}
	for _, m := range want {
		g, ok := got.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Value == nil:
			t.Errorf("metric %s has no value", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s unit %q, want %q", m.Name, g.Unit, m.Unit)
		}
	}
}
