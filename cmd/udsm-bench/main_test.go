package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edsc/internal/benchkit"
	"edsc/internal/raceflag"
)

func TestRunSingleFigure(t *testing.T) {
	out := t.TempDir()
	if err := run("20", out, 0.001, 1, 1, 4096, t.TempDir(), "", 0, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "fig20_encryption.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty figure file")
	}
}

func TestRunCachedFigureAndDelta(t *testing.T) {
	out := t.TempDir()
	if err := run("17", out, 0.001, 1, 1, 1024, t.TempDir(), "", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := run("8", out, 0.001, 1, 1, 1024, t.TempDir(), "", 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"fig17_filesystem_inprocess.dat", "fig08_delta.dat"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunMixedMode(t *testing.T) {
	out := t.TempDir()
	if err := run("mixed", out, 0.001, 1, 1, 1024, t.TempDir(), "", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "ext_mixed_throughput.dat")); err != nil {
		t.Fatal(err)
	}
}

func TestRunBatchMode(t *testing.T) {
	out := t.TempDir()
	if err := run("batch", out, 0.001, 1, 1, 1024, t.TempDir(), "", 8, 0); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "ext_batch_speedup.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty batch data file")
	}
}

func TestRunClusterMode(t *testing.T) {
	out := t.TempDir()
	// N capped at 1: the smoke test only needs the sweep wiring, not the
	// full 5-node run.
	if err := run("cluster", out, 0.001, 1, 1, 1024, t.TempDir(), "", 0, 1); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "ext_cluster_scaling.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty cluster data file")
	}
}

func TestRunExperimentsGate(t *testing.T) {
	// The alloc experiment's budget is testing.Benchmark's benchtime.
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "100x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	dir := t.TempDir()
	report := filepath.Join(dir, "bench.json")
	// Pools drop items at random under -race, so zero-alloc paths allocate.
	if !raceflag.Enabled {
		if err := runExperiments("alloc", true, "", report, "../../BENCH_GATES.json"); err != nil {
			t.Fatalf("committed baseline: %v", err)
		}
	}

	// A doctored baseline whose transform round trip never allocated must
	// fail the same run.
	f, err := os.Open("../../BENCH_GATES.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := benchkit.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	base.Report("alloc").Cell("transform_roundtrip_append").AllocsPerOp = 0
	doctored := filepath.Join(dir, "doctored.json")
	var buf bytes.Buffer
	if _, err := base.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runExperiments("alloc", true, "", report, doctored); err == nil || !strings.Contains(err.Error(), "regression(s) vs") {
		t.Fatalf("doctored baseline: err = %v, want a regression", err)
	}
	f, err = os.Open(report)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if s, err := benchkit.Load(f); err != nil || s.Report("alloc") == nil {
		t.Fatalf("written report: %v, %v", s, err)
	}

	if err := runExperiments("alloc,nosuch", true, "", "", ""); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	for _, fig := range []string{"mux", "sql", "commit", "7", "22"} {
		if err := run(fig, t.TempDir(), 0.001, 1, 1, 1024, t.TempDir(), "", 0, 0); err == nil {
			t.Errorf("-fig %s: accepted", fig)
		}
	}
}
