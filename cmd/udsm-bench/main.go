// Command udsm-bench regenerates the data series behind every figure of
// the paper's evaluation (§V): Figs. 9–21 plus the Fig. 8 delta-encoding
// companion experiment. Output is one gnuplot-ready text file per figure in
// -out, and a summary on stdout.
//
// Usage:
//
//	udsm-bench -fig all -out results -scale 0.02
//	udsm-bench -fig 9            # just Fig. 9
//	udsm-bench -fig 11 -scale 1  # Cloud Store 1 + in-process cache, paper-scale WAN latency
//
// -scale multiplies the simulated WAN latency model. 1.0 reproduces
// paper-magnitude latencies (hundreds of ms per cloud request — slow!);
// the default 0.05 preserves the orderings and crossovers of the figures
// while keeping a full run to a few minutes.
//
// -exp runs the gated hot-path experiments instead (see benchkit.Experiments),
// each in its own child process when more than one is named, and, with
// -baseline, fails on any regression against the committed BENCH_GATES.json
// — the check CI runs:
//
//	udsm-bench -exp alloc,mux,http,sql,commit -json /tmp/bench.json -baseline BENCH_GATES.json
//	udsm-bench -exp mux,http -out results  # refresh ext_mux/ext_http_throughput.dat
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"edsc/internal/benchkit"
	"edsc/monitor"
	"edsc/udsm"
	"edsc/workload"
)

func main() {
	var (
		fig      = flag.String("fig", "all", `figure to regenerate: 8..21, "all", "mixed" (throughput extension), "batch" or "cluster"`)
		out      = flag.String("out", "results", "output directory for .dat files")
		scale    = flag.Float64("scale", 0.05, "WAN latency scale (1.0 = paper magnitude)")
		runs     = flag.Int("runs", 4, "runs averaged per data point")
		ops      = flag.Int("ops", 2, "operations per run per point")
		maxSz    = flag.Int("maxsize", 1<<20, "largest object size in bytes")
		tmpDir   = flag.String("workdir", "", "working directory for the file/SQL stores (default: a temp dir)")
		metrics  = flag.String("metrics", "", "observability listen address serving the manager's /metrics and /debug/pprof/ while the bench runs (empty = off)")
		batch    = flag.Int("batch", 0, `largest keys-per-batch for the batched multi-key comparison (0 = off; "-fig batch" enables it with the default of 64)`)
		clusterN = flag.Int("cluster", 0, `largest node count for the cluster scaling sweep over miniredis-backed clusters (0 = off; "-fig cluster" enables it with the default of 5)`)
		exp      = flag.String("exp", "", "comma-separated gated experiments to run instead of the figures: "+experimentNames()+" (their .dat files are written only when -out is given)")
		jsonOut  = flag.String("json", "", "write the experiments' machine-readable report to this path (requires -exp)")
		baseline = flag.String("baseline", "", "gate the experiments against this committed report (BENCH_GATES.json) and exit 1 on any regression (requires -exp)")
	)
	flag.Parse()

	var err error
	switch {
	case *exp != "":
		// .dat files only when -out is given: the default would overwrite
		// the committed results/ series on every gate run.
		datDir := ""
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "out" {
				datDir = *out
			}
		})
		err = runExperiments(*exp, false, datDir, *jsonOut, *baseline)
	case *jsonOut != "" || *baseline != "":
		err = errors.New("-json and -baseline require -exp")
	default:
		err = run(*fig, *out, *scale, *runs, *ops, *maxSz, *tmpDir, *metrics, *batch, *clusterN)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "udsm-bench:", err)
		os.Exit(1)
	}
}

func experimentNames() string {
	var names []string
	for _, e := range benchkit.Experiments {
		names = append(names, e.Name)
	}
	return strings.Join(names, ",")
}

// runExperiments is the -exp mode: run the named gated experiments (in
// registry order), print each report, optionally write their .dat files
// into datDir and the whole snapshot to jsonPath, and gate the snapshot
// against the committed baseline at baselinePath (the CI regression check).
// smoke shrinks every budget (tests only).
func runExperiments(names string, smoke bool, datDir, jsonPath, baselinePath string) error {
	want := map[string]bool{}
	for _, n := range strings.Split(names, ",") {
		if benchkit.Lookup(n) == nil {
			return fmt.Errorf("unknown experiment %q (have %s)", n, experimentNames())
		}
		want[n] = true
	}
	var base *benchkit.Snapshot
	if baselinePath != "" {
		// Load the baseline first: a bad path should not cost a full run.
		bf, err := os.Open(baselinePath)
		if err != nil {
			return err
		}
		base, err = benchkit.Load(bf)
		bf.Close()
		if err != nil {
			return fmt.Errorf("loading baseline %s: %w", baselinePath, err)
		}
	}
	if datDir != "" {
		if err := os.MkdirAll(datDir, 0o755); err != nil {
			return err
		}
	}

	snap := benchkit.NewSnapshot()
	fmt.Println("environment:", snap.Env())
	isolate := !smoke && len(want) > 1
	for _, e := range benchkit.Experiments {
		if !want[e.Name] {
			continue
		}
		var rep *benchkit.Report
		var err error
		if isolate {
			rep, err = runIsolated(e.Name)
		} else {
			fmt.Printf("running %s: %s ...\n", e.Name, e.Doc)
			if rep, err = e.Run(smoke); err == nil {
				printReport(rep)
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		snap.Reports = append(snap.Reports, rep)
		if datDir != "" && e.WriteDat != nil {
			path := filepath.Join(datDir, e.Dat)
			if err := writeFile(path, func(w io.Writer) error { return e.WriteDat(w, rep) }); err != nil {
				return err
			}
			fmt.Printf("data written to %s\n", path)
		}
	}
	if jsonPath != "" {
		if err := writeFile(jsonPath, func(w io.Writer) error { _, err := snap.WriteTo(w); return err }); err != nil {
			return err
		}
		fmt.Printf("report written to %s (* = guarded against baseline)\n", jsonPath)
	}
	if base == nil {
		return nil
	}
	fmt.Println("baseline environment:", base.Env())
	if regs := benchkit.Compare(base, snap); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "regression:", r)
		}
		return fmt.Errorf("%d regression(s) vs %s", len(regs), baselinePath)
	}
	fmt.Printf("no regressions vs %s\n", baselinePath)
	return nil
}

// runIsolated measures one experiment in a child udsm-bench process, as
// the separate per-experiment gate steps used to. Sharing one process
// shifts the numbers: run after the mux and http loops, the sql cells'
// read p99 measured ~0.3 ms higher (2.3 vs 2.0 ms median over ten runs on
// a 2-vCPU host, against a 2.46 ms ceiling) and the commit speedup at 16
// writers lower (median 3.2x vs 3.8x, against a 3x floor).
func runIsolated(name string) (*benchkit.Report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "udsm-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, name+".json")
	cmd := exec.Command(exe, "-exp", name, "-json", path)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := benchkit.Load(f)
	if err != nil {
		return nil, err
	}
	if rep := s.Report(name); rep != nil {
		return rep, nil
	}
	return nil, fmt.Errorf("child wrote no %s report", name)
}

// printReport prints one line per cell (* = guarded) and the ratios.
func printReport(r *benchkit.Report) {
	for _, c := range r.Cells {
		mark := " "
		if c.Guarded {
			mark = "*"
		}
		line := fmt.Sprintf("  %s %-26s", mark, c.Name)
		if c.NsPerOp > 0 {
			line += fmt.Sprintf(" %10.0f ns/op %8d B/op %6d allocs/op", c.NsPerOp, c.BytesPerOp, c.AllocsPerOp)
		} else {
			line += fmt.Sprintf(" %10.0f ops/sec  read p99 %8.3f ms  write p99 %8.3f ms  (%d ops, %d errors)",
				c.OpsPerSec, c.ReadP99Ms, c.WriteP99Ms, c.Ops, c.Errors)
		}
		for _, k := range sortedKeys(c.Counters) {
			line += fmt.Sprintf(" %s=%g", k, c.Counters[k])
		}
		fmt.Println(line)
	}
	for _, k := range sortedKeys(r.Ratios) {
		fmt.Printf("  %s: %.2fx\n", k, r.Ratios[k])
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeFile creates path, fills it with write, and reports the first error,
// the one from Close included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(fig, out string, scale float64, runs, ops, maxSize int, workdir, metricsAddr string, batch, clusterN int) error {
	// Reject an unknown figure rather than run nothing and report success
	// (the mux, sql and commit series are -exp experiments now).
	if n, err := strconv.Atoi(fig); (err != nil || n < 8 || n > 21) && fig != "all" && fig != "mixed" && fig != "batch" && fig != "cluster" {
		return fmt.Errorf("unknown figure %q (the gated experiments run with -exp %s)", fig, experimentNames())
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if workdir == "" {
		dir, err := os.MkdirTemp("", "udsm-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		workdir = dir
	}

	env, err := benchkit.Setup(scale, workdir)
	if err != nil {
		return err
	}
	defer env.Close()

	if metricsAddr != "" {
		msrv, err := monitor.Serve(metricsAddr, env.Mgr.Metrics())
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Printf("metrics at http://%s/metrics (pprof under /debug/pprof/)\n", msrv.Addr())
	}

	cfg := benchkit.PaperConfig()
	cfg.Runs, cfg.OpsPerRun = runs, ops
	cfg.Sizes = nil
	for _, s := range workload.DefaultSizes() {
		if s <= maxSize {
			cfg.Sizes = append(cfg.Sizes, s)
		}
	}

	want := func(n string) bool { return fig == "all" || fig == n }
	ctx := context.Background()

	if want("9") || want("10") {
		fmt.Println("running Figs. 9-10: read/write latency vs size, all stores ...")
		read, write, err := env.Fig9And10(ctx, cfg)
		if err != nil {
			return err
		}
		if want("9") {
			if err := save(out, "fig09_read_latency.dat", read); err != nil {
				return err
			}
		}
		if want("10") {
			if err := save(out, "fig10_write_latency.dat", write); err != nil {
				return err
			}
		}
	}

	cached := []struct {
		fig   string
		store string
		kind  benchkit.CacheKind
		file  string
	}{
		{"11", benchkit.Cloud1, benchkit.InProcess, "fig11_cloudstore1_inprocess.dat"},
		{"12", benchkit.Cloud1, benchkit.Remote, "fig12_cloudstore1_remote.dat"},
		{"13", benchkit.Cloud2, benchkit.InProcess, "fig13_cloudstore2_inprocess.dat"},
		{"14", benchkit.Cloud2, benchkit.Remote, "fig14_cloudstore2_remote.dat"},
		{"15", benchkit.SQL, benchkit.InProcess, "fig15_minisql_inprocess.dat"},
		{"16", benchkit.SQL, benchkit.Remote, "fig16_minisql_remote.dat"},
		{"17", benchkit.FS, benchkit.InProcess, "fig17_filesystem_inprocess.dat"},
		{"18", benchkit.FS, benchkit.Remote, "fig18_filesystem_remote.dat"},
		{"19", benchkit.Redis, benchkit.InProcess, "fig19_miniredis_inprocess.dat"},
	}
	for _, c := range cached {
		if !want(c.fig) {
			continue
		}
		fmt.Printf("running Fig. %s: %s with %s cache ...\n", c.fig, c.store, kindName(c.kind))
		rep, err := env.FigCached(ctx, c.store, c.kind, cfg)
		if err != nil {
			return err
		}
		if err := save(out, c.file, rep); err != nil {
			return err
		}
	}

	if want("20") {
		fmt.Println("running Fig. 20: AES-128 encryption/decryption overhead ...")
		rep, err := env.Fig20(cfg)
		if err != nil {
			return err
		}
		if err := save(out, "fig20_encryption.dat", rep); err != nil {
			return err
		}
	}
	if want("21") {
		fmt.Println("running Fig. 21: gzip compression/decompression overhead ...")
		rep, err := env.Fig21(cfg)
		if err != nil {
			return err
		}
		if err := save(out, "fig21_compression.dat", rep); err != nil {
			return err
		}
	}
	if want("8") {
		fmt.Println("running Fig. 8 companion: delta encoding vs change fraction ...")
		rep, err := env.Fig8Delta(64<<10, 0, 3)
		if err != nil {
			return err
		}
		if err := save(out, "fig08_delta.dat", rep); err != nil {
			return err
		}
	}
	if fig == "mixed" || fig == "all" {
		fmt.Println("running mixed-workload throughput (extension; 90% reads, 8 clients) ...")
		if err := runMixed(ctx, env, out); err != nil {
			return err
		}
	}
	if batch > 0 || fig == "batch" {
		if batch <= 0 {
			batch = 64
		}
		fmt.Printf("running batched multi-key comparison (up to %d keys/batch) ...\n", batch)
		if err := runBatch(ctx, env, out, batch); err != nil {
			return err
		}
	}
	if clusterN > 0 || fig == "cluster" {
		if clusterN <= 0 {
			clusterN = 5
		}
		fmt.Printf("running cluster scaling sweep (miniredis nodes, up to N=%d) ...\n", clusterN)
		if err := runCluster(ctx, out, clusterN); err != nil {
			return err
		}
	}
	fmt.Printf("done; data files in %s\n", out)
	return nil
}

// runCluster measures mixed-workload throughput of the replicated cluster
// tier as the node count grows. Nodes are miniredis servers, so every
// replica access crosses a real TCP connection; replication is capped at 3
// with majority quorums, matching the chaos suite's geometry. The N=1 row
// is the unreplicated baseline — the cost of quorum replication is the gap
// between it and N>=3.
func runCluster(ctx context.Context, out string, maxNodes int) error {
	f, err := os.Create(filepath.Join(out, "ext_cluster_scaling.dat"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# extension: cluster tier scaling, mixed workload (90% reads, 8 clients, 1 KiB), miniredis nodes")
	fmt.Fprintln(f, "# columns: nodes replication read_quorum write_quorum ops_per_sec read_p99_ms write_p99_ms")
	for _, n := range []int{1, 3, 5} {
		if n > maxNodes {
			break
		}
		if err := runClusterPoint(ctx, f, n); err != nil {
			return err
		}
	}
	return nil
}

func runClusterPoint(ctx context.Context, f io.Writer, n int) error {
	nodes := make([]udsm.ClusterNode, n)
	for i := range nodes {
		srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
		if err != nil {
			return err
		}
		defer srv.Close()
		id := fmt.Sprintf("node%d", i)
		store := udsm.OpenMiniRedis(id, srv.Addr(), "")
		defer store.Close()
		nodes[i] = udsm.ClusterNode{ID: id, Store: store}
	}
	c, err := udsm.NewClusterStore(fmt.Sprintf("cluster%d", n), nodes, udsm.ClusterOptions{})
	if err != nil {
		return err
	}
	opts := c.Options()
	rep, err := workload.RunMixed(ctx, c, workload.MixedConfig{
		Clients: 8, Ops: 2000, ReadFraction: 0.9, Keys: 64, Size: 1 << 10,
		Seed: 7, KeyPrefix: fmt.Sprintf("clu%d:", n),
	})
	if err != nil {
		return err
	}
	fmt.Printf("  N=%d (R=%d W=%d of %d): %s\n",
		n, opts.ReadQuorum, opts.WriteQuorum, opts.Replication, rep)
	fmt.Fprintf(f, "%d %d %d %d %.0f %.4f %.4f\n",
		n, opts.Replication, opts.ReadQuorum, opts.WriteQuorum, rep.Throughput,
		float64(rep.ReadLatency.P99)/1e6, float64(rep.WriteLatency.P99)/1e6)
	return nil
}

// runBatch measures, per store, how much a batched multi-key call saves over
// the equivalent per-key loop — the end-to-end payoff of the bulk interface.
func runBatch(ctx context.Context, env *benchkit.Env, out string, maxBatch int) error {
	f, err := os.Create(filepath.Join(out, "ext_batch_speedup.dat"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# extension: batched multi-key interface vs per-key loop, 1 KiB objects")
	fmt.Fprintln(f, "# columns: store batch_size perkey_get_ms batch_get_ms get_speedup perkey_put_ms batch_put_ms put_speedup")
	sizes := []int{}
	for _, n := range []int{4, 16, maxBatch} {
		if n <= maxBatch && (len(sizes) == 0 || n > sizes[len(sizes)-1]) {
			sizes = append(sizes, n)
		}
	}
	for _, name := range benchkit.AllStores() {
		ds, err := env.Store(name)
		if err != nil {
			return err
		}
		rep, err := workload.RunBatchCompare(ctx, ds, workload.BatchConfig{
			BatchSizes: sizes, Runs: 2, KeyPrefix: "batch:" + name + ":",
		})
		if err != nil {
			return err
		}
		for _, p := range rep.Points {
			fmt.Printf("  %s n=%d: get %.1fx, put %.1fx\n", name, p.BatchSize, p.GetSpeedup(), p.PutSpeedup())
			fmt.Fprintf(f, "%s %d %.4f %.4f %.2f %.4f %.4f %.2f\n",
				name, p.BatchSize,
				float64(p.PerKeyGet)/1e6, float64(p.BatchGet)/1e6, p.GetSpeedup(),
				float64(p.PerKeyPut)/1e6, float64(p.BatchPut)/1e6, p.PutSpeedup())
		}
	}
	return nil
}

// runMixed measures closed-loop throughput per store — an extension beyond
// the paper's latency figures, using the same workload machinery.
func runMixed(ctx context.Context, env *benchkit.Env, out string) error {
	f, err := os.Create(filepath.Join(out, "ext_mixed_throughput.dat"))
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Fprintln(f, "# extension: mixed workload, 90% reads, 8 clients, 1 KiB objects")
	fmt.Fprintln(f, "# columns: store ops_per_sec read_p99_ms write_p99_ms")
	for _, name := range benchkit.AllStores() {
		ds, err := env.Store(name)
		if err != nil {
			return err
		}
		ops := 2000
		if name == benchkit.Cloud1 || name == benchkit.Cloud2 {
			ops = 300 // WAN-latency stores are slow per op
		}
		rep, err := workload.RunMixed(ctx, ds, workload.MixedConfig{
			Clients: 8, Ops: ops, ReadFraction: 0.9, Keys: 64, Size: 1 << 10,
			Seed: 7, KeyPrefix: "mix:" + name + ":",
		})
		if err != nil {
			return err
		}
		fmt.Printf("  %s\n", rep)
		fmt.Fprintf(f, "%s %.0f %.4f %.4f\n", name, rep.Throughput,
			float64(rep.ReadLatency.P99)/1e6, float64(rep.WriteLatency.P99)/1e6)
	}
	return nil
}

func kindName(k benchkit.CacheKind) string {
	if k == benchkit.InProcess {
		return "in-process"
	}
	return "remote"
}

func save(dir, name string, rep io.WriterTo) error {
	path := filepath.Join(dir, name)
	if err := writeFile(path, func(w io.Writer) error { _, err := rep.WriteTo(w); return err }); err != nil {
		return err
	}
	// Echo a short preview to stdout.
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.SplitN(string(data), "\n", 4)
	for i, l := range lines {
		if i >= 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Println(" ", l)
	}
	return nil
}
