// Gated experiments: the micro-benchmarks CI re-measures on every change
// and compares against the committed baseline (BENCH_GATES.json). Unlike
// the figure experiments (benchkit.go), which reproduce the paper's latency
// curves against simulated stores, each of these measures one hot path —
// allocations, the miniredis and cloudsim network paths, the paged SQL
// engine, the commit pipeline — and every one emits the same Report schema
// and is gated by the same three checks plus its own structural ones.
package benchkit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"edsc/workload"
)

// Shared gate thresholds. Absolute numbers move with the machine, so the
// per-cell gates are relative and generous — they catch "the path broke",
// not runner noise; the machine-independent ratios are the strict gates.
const (
	// opsFloorFrac: a guarded cell keeps at least this share of the
	// baseline's ops/sec.
	opsFloorFrac = 0.25
	// p99Factor and p99GraceMs: a guarded cell's p99 may grow to
	// p99Factor × baseline + p99GraceMs (sub-millisecond baselines would
	// otherwise gate on scheduler jitter).
	p99Factor  = 4.0
	p99GraceMs = 2.0
	// allocTolerance: a guarded path's allocs/op may grow by this fraction;
	// a zero-alloc baseline therefore tolerates no allocation at all.
	allocTolerance = 0.20
)

// Cell is one measured configuration of an experiment: a client mode, a
// cache regime, a (mode, writers) commit cell, or an allocation hot path.
// Fields an experiment does not measure stay zero and are omitted.
type Cell struct {
	Name string `json:"name"`
	// Guarded marks cells CI gates against the committed baseline;
	// unguarded cells (the naive baselines) are informational.
	Guarded     bool    `json:"guarded"`
	Ops         int64   `json:"ops,omitempty"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
	ReadP99Ms   float64 `json:"read_p99_ms,omitempty"`
	WriteP99Ms  float64 `json:"write_p99_ms,omitempty"`
	Errors      int64   `json:"errors,omitempty"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Counters are the engine's own accounting for the run (cache_pages,
	// data_pages, evictions, wal_fsyncs, committed_batches, avg_group,
	// writers).
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Report is one experiment's result.
type Report struct {
	Experiment string         `json:"experiment"`
	Params     map[string]int `json:"params"`
	Cells      []Cell         `json:"cells"`
	// Ratios are the machine-independent headline numbers (mux_speedup,
	// coalesce_speedup, data_to_cache_ratio, paged_penalty, speedup_at_N).
	Ratios map[string]float64 `json:"ratios,omitempty"`
}

// Cell returns the named cell, or nil.
func (r *Report) Cell(name string) *Cell {
	for i := range r.Cells {
		if r.Cells[i].Name == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// Snapshot is one run of a set of experiments plus the environment it ran
// on; BENCH_GATES.json is the committed baseline Snapshot. The fingerprint
// is recorded so a red gate can be traced to a host change; nothing is
// gated on it. "unknown" and 0 mean not recorded.
type Snapshot struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPU        string    `json:"cpu"`
	Reports    []*Report `json:"reports"`
}

// NewSnapshot returns an empty Snapshot fingerprinting this process.
func NewSnapshot() *Snapshot {
	return &Snapshot{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()}
}

// Env is the one-line fingerprint.
func (s *Snapshot) Env() string {
	return fmt.Sprintf("%s, GOMAXPROCS %d, CPU %s", s.GoVersion, s.GOMAXPROCS, s.CPU)
}

// Report returns the named experiment's report, or nil.
func (s *Snapshot) Report(experiment string) *Report {
	for _, r := range s.Reports {
		if r.Experiment == experiment {
			return r
		}
	}
	return nil
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// WriteTo serializes the snapshot as indented JSON.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return 0, err
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// Load reads a snapshot written by WriteTo. Unknown fields are an error,
// so a file in another schema cannot load as an empty baseline.
func Load(rd io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Bound is a gate on one of a report's ratios: it must be present, positive,
// at least Min and, when Max > 0, at most Max.
type Bound struct {
	Ratio    string
	Min, Max float64
}

// Experiment is one gated micro-benchmark.
type Experiment struct {
	Name string
	Doc  string
	// Run measures the experiment. smoke shrinks every budget so tests can
	// exercise it end to end in well under a second per cell; the committed
	// baseline is always measured with smoke false. (The alloc experiment's
	// budget is testing.Benchmark's -test.benchtime instead.)
	Run func(smoke bool) (*Report, error)
	// Dat names the results/ file WriteDat fills ("" = none).
	Dat      string
	WriteDat func(w io.Writer, r *Report) error
	// CellGate compares one baseline cell with the current one.
	CellGate func(base, cur Cell) []string
	Bounds   []Bound
	// Check holds the experiment's structural gates (nil = none).
	Check func(r *Report) []string
}

// Experiments is the registry, in run order.
var Experiments = []*Experiment{
	{
		Name: "alloc", Doc: "allocation profile of the in-process hot paths (ns, B, allocs per op)",
		Run: runAlloc, CellGate: allocGate,
	},
	{
		Name: "mux", Doc: "miniredis network hot path, closed loop: per-request vs pooled vs multiplexed clients",
		Run: runMux, Dat: "ext_mux_throughput.dat", WriteDat: writeMuxDat,
		CellGate: relativeGate, Bounds: []Bound{{Ratio: "mux_speedup", Min: 5}},
	},
	{
		Name: "http", Doc: "cloudsim HTTP hot path, closed loop: per-op vs tuned pool vs coalesced clients",
		Run: runHTTP, Dat: "ext_http_throughput.dat", WriteDat: writeHTTPDat,
		CellGate: relativeGate, Bounds: []Bound{{Ratio: "coalesce_speedup", Min: 3}},
	},
	{
		Name: "sql", Doc: "paged SQL storage engine, closed loop: dataset cached vs ~10x the page cache",
		Run: runSQL, Dat: "ext_sql_paged.dat", WriteDat: writeSQLDat,
		CellGate: relativeGate, Check: checkPagedEvictions,
		Bounds: []Bound{{Ratio: "data_to_cache_ratio", Min: 10}, {Ratio: "paged_penalty", Max: 3}},
	},
	{
		Name: "commit", Doc: "commit pipeline, closed loop: serial vs grouped commits across writer counts",
		Run: runCommit, Dat: "ext_commit_group.dat", WriteDat: writeCommitDat,
		CellGate: relativeGate, Check: checkGrouped,
		Bounds: []Bound{{Ratio: "speedup_at_16", Min: 3}},
	},
}

// Lookup returns the registered experiment with that name, or nil.
func Lookup(name string) *Experiment {
	for _, e := range Experiments {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Compare gates every report in current against the same experiment's
// report in baseline and returns a human-readable line per regression
// (empty = pass). A report with no baseline counterpart fails rather than
// passing ungated.
func Compare(baseline, current *Snapshot) []string {
	var regs []string
	for _, cur := range current.Reports {
		e, base := Lookup(cur.Experiment), baseline.Report(cur.Experiment)
		switch {
		case e == nil:
			regs = append(regs, fmt.Sprintf("%s: unknown experiment", cur.Experiment))
		case base == nil:
			regs = append(regs, fmt.Sprintf("%s: no baseline report", cur.Experiment))
		default:
			regs = append(regs, e.Compare(base, cur)...)
		}
	}
	return regs
}

// Compare applies the experiment's gates to one report pair. Cells are
// gated when guarded on either side; a guarded baseline cell missing from
// the current report fails (a renamed path must not silently drop its
// guard), while new cells absent from the baseline are allowed.
func (e *Experiment) Compare(base, cur *Report) []string {
	var regs []string
	for _, b := range base.Cells {
		c := cur.Cell(b.Name)
		switch {
		case c == nil && b.Guarded:
			regs = append(regs, fmt.Sprintf("%s/%s: guarded cell missing from the current run", e.Name, b.Name))
		case c != nil && (b.Guarded || c.Guarded):
			regs = append(regs, e.CellGate(b, *c)...)
		}
	}
	for _, g := range e.Bounds {
		v, ok := cur.Ratios[g.Ratio]
		switch {
		case !ok || v <= 0:
			regs = append(regs, fmt.Sprintf("%s missing or zero; the run did not measure it", g.Ratio))
		case v < g.Min:
			regs = append(regs, fmt.Sprintf("%s %.2fx below the %.1fx acceptance floor", g.Ratio, v, g.Min))
		case g.Max > 0 && v > g.Max:
			regs = append(regs, fmt.Sprintf("%s %.2fx above the %.1fx acceptance ceiling", g.Ratio, v, g.Max))
		}
	}
	if e.Check != nil {
		regs = append(regs, e.Check(cur)...)
	}
	return regs
}

// relativeGate is the shared throughput cell gate: ops/sec floor, read and
// write p99 ceilings, zero errors.
func relativeGate(b, c Cell) []string {
	var regs []string
	if floor := b.OpsPerSec * opsFloorFrac; c.OpsPerSec < floor {
		regs = append(regs, fmt.Sprintf("%s: ops/sec %.0f -> %.0f (floor %.0f)", c.Name, b.OpsPerSec, c.OpsPerSec, floor))
	}
	if ceil := b.ReadP99Ms*p99Factor + p99GraceMs; c.ReadP99Ms > ceil {
		regs = append(regs, fmt.Sprintf("%s: read p99 %.2fms -> %.2fms (ceiling %.2fms)", c.Name, b.ReadP99Ms, c.ReadP99Ms, ceil))
	}
	if ceil := b.WriteP99Ms*p99Factor + p99GraceMs; c.WriteP99Ms > ceil {
		regs = append(regs, fmt.Sprintf("%s: write p99 %.2fms -> %.2fms (ceiling %.2fms)", c.Name, b.WriteP99Ms, c.WriteP99Ms, ceil))
	}
	if c.Errors > 0 {
		regs = append(regs, fmt.Sprintf("%s: %d errored operations", c.Name, c.Errors))
	}
	return regs
}

// allocGate is the allocation cell gate: allocs/op may grow by at most
// allocTolerance over the baseline.
func allocGate(b, c Cell) []string {
	limit := float64(b.AllocsPerOp) * (1 + allocTolerance)
	if float64(c.AllocsPerOp) > limit && c.AllocsPerOp > b.AllocsPerOp {
		return []string{fmt.Sprintf("%s: allocs/op %d -> %d (limit %.1f)", c.Name, b.AllocsPerOp, c.AllocsPerOp, limit)}
	}
	return nil
}

// mixedCell converts one closed-loop workload run into a cell.
func mixedCell(name string, guarded bool, mr *workload.MixedReport) Cell {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return Cell{
		Name: name, Guarded: guarded, Ops: mr.Ops, OpsPerSec: mr.Throughput,
		ReadP99Ms: ms(mr.ReadLatency.P99), WriteP99Ms: ms(mr.WriteLatency.P99), Errors: mr.Errors,
	}
}

// opsRatio is num's ops/sec over den's, or 0 when either cell is missing
// or den measured nothing.
func opsRatio(r *Report, num, den string) float64 {
	n, d := r.Cell(num), r.Cell(den)
	if n == nil || d == nil || d.OpsPerSec <= 0 {
		return 0
	}
	return n.OpsPerSec / d.OpsPerSec
}

// writeRows writes a .dat header and one row per cell: the cell name, then
// each column — ops_per_sec, read_p99_ms, write_p99_ms or a counter.
func writeRows(w io.Writer, header string, r *Report, cols ...string) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	fmt.Fprintf(bw, "# columns: %s\n", strings.Join(cols, " "))
	for _, c := range r.Cells {
		bw.WriteString(c.Name)
		for _, col := range cols[1:] {
			switch col {
			case "ops_per_sec":
				fmt.Fprintf(bw, " %.0f", c.OpsPerSec)
			case "read_p99_ms":
				fmt.Fprintf(bw, " %.4f", c.ReadP99Ms)
			case "write_p99_ms":
				fmt.Fprintf(bw, " %.4f", c.WriteP99Ms)
			default:
				bw.WriteString(" " + strconv.FormatFloat(c.Counters[col], 'f', -1, 64))
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
