package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json this
// package must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSpecAgreesWithBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	sp := testSpec(t)
	if len(b.Workloads) != len(sp.Workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, spec.json %d", len(b.Workloads), len(sp.Workloads))
	}
	for i, w := range sp.Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.json %q: %q", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	var mapped []string
	for _, l := range sp.Layers {
		mapped = append(mapped, l.Metrics...)
	}
	var listed []string
	for _, m := range b.PerLayer {
		listed = append(listed, m.Name)
	}
	sort.Strings(mapped)
	sort.Strings(listed)
	if !reflect.DeepEqual(mapped, listed) {
		t.Errorf("spec.json maps per-layer metrics\n%v\nBENCHMARK.json lists\n%v", mapped, listed)
	}
}

// Every workload runs correctly in both modes, scaled down, and reports
// exactly the metrics BENCHMARK.json names, in their units.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range testSpec(t).Workloads {
		for _, traced := range []bool{false, true} {
			res, err := benchmark(config{
				workload: small(w, 2000), clients: 2, seed: 5, seconds: time.Second,
				trace: traced, dir: t.TempDir(), log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d failed", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v reports\n%v\nBENCHMARK.json wants\n%v", w.Name, traced, got, want[traced])
			}
		}
	}
}
