package benchkit

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"
)

// shortBenchtime caps testing.Benchmark (the alloc experiment's budget) for
// the duration of a test.
func shortBenchtime(t *testing.T) {
	t.Helper()
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "20x"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set("test.benchtime", old) })
}

func TestExperimentsSmoke(t *testing.T) {
	// Tiny budgets: this checks every registered experiment runs end to end,
	// writes its .dat rows, and round-trips through JSON — not performance.
	shortBenchtime(t)
	cells := map[string]int{"alloc": 10, "mux": 3, "http": 3, "sql": 2, "commit": 6}
	snap := NewSnapshot()
	for _, e := range Experiments {
		rep, err := e.Run(true)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if rep.Experiment != e.Name || len(rep.Cells) != cells[e.Name] {
			t.Fatalf("%s: report %q with %d cells, want %d", e.Name, rep.Experiment, len(rep.Cells), cells[e.Name])
		}
		for _, c := range rep.Cells {
			if e.Name != "alloc" && c.OpsPerSec <= 0 || e.Name == "alloc" && c.NsPerOp <= 0 {
				t.Errorf("%s/%s: nothing measured: %+v", e.Name, c.Name, c)
			}
			if c.Errors != 0 {
				t.Errorf("%s/%s: %d errors", e.Name, c.Name, c.Errors)
			}
		}
		for _, b := range e.Bounds {
			if _, ok := rep.Ratios[b.Ratio]; !ok && b.Ratio != "speedup_at_16" { // the smoke sweep stops at 4 writers
				t.Errorf("%s: ratio %s not reported", e.Name, b.Ratio)
			}
		}
		if e.WriteDat != nil {
			var buf bytes.Buffer
			if err := e.WriteDat(&buf, rep); err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(buf.String(), "\n"); n != 2+len(rep.Cells) {
				t.Errorf("%s: %d .dat lines, want header + columns + %d rows:\n%s", e.Name, n, len(rep.Cells), buf.String())
			}
		}
		snap.Reports = append(snap.Reports, rep)
	}
	roundTrip(t, snap)
}

// roundTrip checks snap survives WriteTo and Load unchanged.
func roundTrip(t *testing.T, snap *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := snap.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap) {
		t.Fatal("snapshot did not round-trip through JSON")
	}
}

// smokeRun runs one registered experiment at smoke budgets.
func smokeRun(t *testing.T, name string) *Report {
	t.Helper()
	rep, err := Lookup(name).Run(true)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestThroughputSmoke(t *testing.T) {
	// The mux experiment: all three client modes measure something, error
	// free, and the headline ratio lands in the report.
	rep := smokeRun(t, "mux")
	for _, name := range []string{"perconn", "pooled", "mux"} {
		c := rep.Cell(name)
		if c == nil {
			t.Fatalf("mode %s missing from %+v", name, rep.Cells)
		}
		if c.OpsPerSec <= 0 || c.Errors != 0 {
			t.Errorf("%s: ops/sec %v, %d errors", name, c.OpsPerSec, c.Errors)
		}
	}
	if len(rep.Cells) != 3 || rep.Ratios["mux_speedup"] <= 0 {
		t.Fatalf("%d cells, ratios %v; want 3 cells and a mux_speedup", len(rep.Cells), rep.Ratios)
	}
	roundTrip(t, &Snapshot{Reports: []*Report{rep}})
}

func TestCommitThroughputSmoke(t *testing.T) {
	// The commit sweep: every cell carries the engine's own accounting.
	rep := smokeRun(t, "commit")
	if len(rep.Cells) != 6 { // (2 uniform counts + 1 zipf) x 2 modes
		t.Fatalf("%d cells, want 6", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		fsyncs, batches := c.Counters["wal_fsyncs"], c.Counters["committed_batches"]
		if c.OpsPerSec <= 0 || c.Errors != 0 {
			t.Errorf("%s: ops/sec %v, %d errors", c.Name, c.OpsPerSec, c.Errors)
		}
		if fsyncs <= 0 || batches <= 0 {
			t.Errorf("%s: engine counters missing: %v", c.Name, c.Counters)
		}
		if strings.HasPrefix(c.Name, "serial-") && fsyncs != batches {
			t.Errorf("%s: serial mode must pay one fsync per commit: %v", c.Name, c.Counters)
		}
		if strings.HasPrefix(c.Name, "grouped-") && fsyncs > batches {
			t.Errorf("%s: more fsyncs than batches: %v", c.Name, c.Counters)
		}
	}
	if len(rep.Ratios) != 2 {
		t.Errorf("commit ratios = %v, want one per uniform writer count", rep.Ratios)
	}
	roundTrip(t, &Snapshot{Reports: []*Report{rep}})
}

func loadGates(t *testing.T) *Snapshot {
	t.Helper()
	f, err := os.Open("../../BENCH_GATES.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGates checks the committed baseline against itself, then one doctored
// copy per gate: each must fire exactly that gate.
func TestGates(t *testing.T) {
	cell := func(s *Snapshot, exp, name string) *Cell { return s.Report(exp).Cell(name) }
	cases := []struct {
		name   string
		doctor func(s *Snapshot)
		want   string // "" = the doctored run must pass
	}{
		{"self", func(*Snapshot) {}, ""},
		{"within relative bounds", func(s *Snapshot) {
			c := cell(s, "mux", "pooled")
			c.OpsPerSec *= 0.3
			c.ReadP99Ms *= 4
			c.WriteP99Ms = c.WriteP99Ms*4 + 1.9
			cell(s, "mux", "perconn").OpsPerSec *= 0.01 // unguarded
		}, ""},
		{"ops floor", func(s *Snapshot) { cell(s, "http", "tuned").OpsPerSec *= 0.2 }, "tuned: ops/sec"},
		{"read p99 ceiling", func(s *Snapshot) { cell(s, "mux", "mux").ReadP99Ms = 18.874367*4 + 2.1 }, "mux: read p99"},
		{"write p99 ceiling", func(s *Snapshot) { cell(s, "commit", "serial-16w-uniform").WriteP99Ms *= 5 }, "serial-16w-uniform: write p99"},
		{"errors", func(s *Snapshot) { cell(s, "sql", "cached").Errors = 1 }, "cached: 1 errored"},
		{"allocs +20%", func(s *Snapshot) { cell(s, "alloc", "transform_roundtrip_append").AllocsPerOp = 3 }, "transform_roundtrip_append: allocs/op 2 -> 3"},
		{"zero-alloc path allocates", func(s *Snapshot) { cell(s, "alloc", "cache_hit").AllocsPerOp = 1 }, "cache_hit: allocs/op 0 -> 1"},
		{"unguarded allocs ignored", func(s *Snapshot) { cell(s, "alloc", "transform_roundtrip_legacy").AllocsPerOp = 99 }, ""},
		{"mux speedup floor", func(s *Snapshot) { s.Report("mux").Ratios["mux_speedup"] = 4.9 }, "mux_speedup 4.90x below the 5.0x"},
		{"coalesce speedup floor", func(s *Snapshot) { s.Report("http").Ratios["coalesce_speedup"] = 2.9 }, "coalesce_speedup 2.90x below the 3.0x"},
		{"data/cache floor", func(s *Snapshot) { s.Report("sql").Ratios["data_to_cache_ratio"] = 9.9 }, "data_to_cache_ratio 9.90x below the 10.0x"},
		{"paged evictions", func(s *Snapshot) { cell(s, "sql", "paged").Counters["evictions"] = 0 }, "zero evictions"},
		{"paged penalty ceiling", func(s *Snapshot) { s.Report("sql").Ratios["paged_penalty"] = 3.1 }, "paged_penalty 3.10x above the 3.0x"},
		{"group-commit speedup floor", func(s *Snapshot) { s.Report("commit").Ratios["speedup_at_16"] = 2.6 }, "speedup_at_16 2.60x below the 3.0x"},
		{"fsyncs < batches", func(s *Snapshot) {
			c := cell(s, "commit", "grouped-64w-uniform")
			c.Counters["wal_fsyncs"] = c.Counters["committed_batches"]
		}, "grouped-64w-uniform: 4512 fsyncs for 4512 batches"},
		// A speedup whose denominator row read 0 ops/s used to pass.
		{"zero speedup", func(s *Snapshot) { s.Report("mux").Ratios["mux_speedup"] = 0 }, "mux_speedup missing or zero"},
		// A run whose coalesced row vanished reports no ratio at all.
		{"missing speedup", func(s *Snapshot) { delete(s.Report("http").Ratios, "coalesce_speedup") }, "coalesce_speedup missing or zero"},
		{"zero penalty", func(s *Snapshot) { s.Report("sql").Ratios["paged_penalty"] = 0 }, "paged_penalty missing or zero"},
		// A renamed path must not silently lose its guard...
		{"guarded cell missing", func(s *Snapshot) {
			r := s.Report("alloc")
			r.Cell("seal_to").Name = "seal_into"
		}, "alloc/seal_to: guarded cell missing"},
		// ...while a new path without a baseline is allowed.
		{"new cell", func(s *Snapshot) {
			r := s.Report("mux")
			r.Cells = append(r.Cells, Cell{Name: "mux2", Guarded: true, OpsPerSec: 1})
		}, ""},
		{"unguarded cell missing", func(s *Snapshot) {
			r := s.Report("http")
			r.Cells = r.Cells[1:] // perop
		}, ""},
		{"unknown experiment", func(s *Snapshot) { s.Report("sql").Experiment = "sql2" }, "sql2: unknown experiment"},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			base, cur := loadGates(t), loadGates(t)
			tc.doctor(cur)
			regs := Compare(base, cur)
			switch {
			case tc.want == "" && len(regs) != 0:
				t.Fatalf("clean run flagged: %v", regs)
			case tc.want != "" && (len(regs) != 1 || !strings.Contains(regs[0], tc.want)):
				t.Fatalf("want exactly one regression containing %q, got %v", tc.want, regs)
			}
		})
	}
}

func TestCompareNeedsBaselineReport(t *testing.T) {
	base, cur := loadGates(t), loadGates(t)
	base.Reports = base.Reports[1:] // drop alloc
	if regs := Compare(base, cur); len(regs) != 1 || !strings.Contains(regs[0], "alloc: no baseline report") {
		t.Fatalf("got %v", regs)
	}
}

// wantRegressions checks regs holds exactly one line containing each want.
func wantRegressions(t *testing.T, regs, wants []string) {
	t.Helper()
	for _, w := range wants {
		found := false
		for _, r := range regs {
			if strings.Contains(r, w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing regression %q in %v", w, regs)
		}
	}
	if len(regs) != len(wants) {
		t.Errorf("%d regressions, want %d: %v", len(regs), len(wants), regs)
	}
}

// TestCompareThroughput: several mux gates firing in one run, each
// reported once, next to a run that stays within every bound.
func TestCompareThroughput(t *testing.T) {
	e := Lookup("mux")
	base := &Report{
		Experiment: "mux",
		Ratios:     map[string]float64{"mux_speedup": 10},
		Cells: []Cell{
			{Name: "perconn", OpsPerSec: 1000, ReadP99Ms: 100},
			{Name: "pooled", OpsPerSec: 50000, ReadP99Ms: 10, WriteP99Ms: 10, Guarded: true},
			{Name: "mux", OpsPerSec: 100000, ReadP99Ms: 5, WriteP99Ms: 5, Guarded: true},
		},
	}
	ok := &Report{
		Experiment: "mux",
		Ratios:     map[string]float64{"mux_speedup": 8},
		Cells: []Cell{
			// Half the throughput and double the p99: within the loose gates.
			{Name: "perconn", OpsPerSec: 400, ReadP99Ms: 500}, // unguarded, ignored
			{Name: "pooled", OpsPerSec: 25000, ReadP99Ms: 20, WriteP99Ms: 20, Guarded: true},
			{Name: "mux", OpsPerSec: 60000, ReadP99Ms: 10, WriteP99Ms: 10, Guarded: true},
		},
	}
	if regs := e.Compare(base, ok); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}

	bad := &Report{
		Experiment: "mux",
		Ratios:     map[string]float64{"mux_speedup": 3}, // below the 5x acceptance floor
		Cells: []Cell{
			{Name: "pooled", OpsPerSec: 1000, ReadP99Ms: 300, WriteP99Ms: 10, Guarded: true},
			{Name: "mux", OpsPerSec: 90000, ReadP99Ms: 5, WriteP99Ms: 5, Errors: 7, Guarded: true},
		},
	}
	wantRegressions(t, e.Compare(base, bad), []string{
		"pooled: ops/sec",  // 1000 < 50000*0.25
		"pooled: read p99", // 300 > 10*4+2
		"mux: 7 errored",
		"mux_speedup 3.00x below the 5.0x",
	})
}

// TestCompareCommitThroughput: the commit gates, including a grouped cell
// whose pipeline degraded to one fsync per commit.
func TestCompareCommitThroughput(t *testing.T) {
	e := Lookup("commit")
	cell := func(name string, ops, p99 float64, errs int64, fsyncs, batches float64) Cell {
		return Cell{Name: name, Guarded: true, OpsPerSec: ops, WriteP99Ms: p99, Errors: errs,
			Counters: map[string]float64{"writers": 16, "wal_fsyncs": fsyncs, "committed_batches": batches}}
	}
	base := &Report{
		Experiment: "commit",
		Ratios:     map[string]float64{"speedup_at_16": 5},
		Cells: []Cell{
			cell("serial-16w-uniform", 1000, 50, 0, 2000, 2000),
			cell("grouped-16w-uniform", 5000, 10, 0, 400, 2000),
		},
	}
	ok := &Report{
		Experiment: "commit",
		Ratios:     map[string]float64{"speedup_at_16": 4},
		Cells: []Cell{
			// Half the throughput, double the p99: within the loose gates.
			cell("serial-16w-uniform", 500, 100, 0, 2000, 2000),
			cell("grouped-16w-uniform", 2000, 20, 0, 500, 2000),
		},
	}
	if regs := e.Compare(base, ok); len(regs) != 0 {
		t.Fatalf("clean run flagged: %v", regs)
	}

	bad := &Report{
		Experiment: "commit",
		Ratios:     map[string]float64{"speedup_at_16": 1.5}, // below the 3x acceptance floor
		Cells: []Cell{
			cell("serial-16w-uniform", 100, 500, 0, 2000, 2000),
			cell("grouped-16w-uniform", 5000, 5, 3, 2000, 2000),
		},
	}
	wantRegressions(t, e.Compare(base, bad), []string{
		"serial-16w-uniform: ops/sec",   // 100 < 1000*0.25
		"serial-16w-uniform: write p99", // 500 > 50*4+2
		"grouped-16w-uniform: 3 errored",
		"speedup_at_16 1.50x below the 3.0x",
		"did not group",
	})
}
