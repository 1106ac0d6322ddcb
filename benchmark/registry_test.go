package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is what the driver reads and the registry is what the
// program reports; they must name the same things in the same order.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "benchmark/run.sh"}; !reflect.DeepEqual(bj.Command, want) {
		t.Errorf("command = %v, want %v", bj.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(bj.Paths, want) {
		t.Errorf("paths = %v, want %v", bj.Paths, want)
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the registry %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the registry {%s %s}", i, got, w.Name, w.Why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the registry {%s %s %s %g}", i, got, m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bj.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the registry {%s %s %s}", i, got, m.Name, m.Unit, m.Better)
		}
	}
}

// The driver refuses a BENCHMARK.json outside these limits before a single
// run, so the registry is held to them here.
func TestRegistryMeetsTheDriverContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 letters, digits, '_', '.', '-'", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	dir := func(n, better string) {
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		use(w.Name)
		if len([]rune(w.Why)) > 200 || regexp.MustCompile(`[\r\n]`).MatchString(w.Why) {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	var setup *metricDef
	for i, m := range endToEnd {
		use(m.Name)
		dir(m.Name, m.Better)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &endToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("end-to-end metrics need setup_s in s, lower is better; have %+v", setup)
	} else {
		for _, m := range endToEnd {
			if m.Bound > setup.Bound {
				t.Errorf("%s has a larger bound (%g) than setup_s (%g)", m.Name, m.Bound, setup.Bound)
			}
		}
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range perLayer {
		use(m.Name)
		dir(m.Name, m.Better)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", m.Name)
		}
	}
}
