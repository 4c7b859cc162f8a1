package main

import (
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesProgram holds BENCHMARK.json and the metric
// and workload tables of this program in agreement: the same names,
// units and directions, the default window, and the command pointing
// at run.sh. The bounds are measured, not derived, so it leaves them be.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := readBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d s", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, program has %s: %q", i, w, workloads[i].name, workloads[i].why)
		}
	}
	strip := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better}
		}
		return out
	}
	if got := strip(b.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end = %v, program has %v", got, endToEnd)
	}
	if got := strip(b.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer = %v, program has %v", got, perLayer)
	}
}
