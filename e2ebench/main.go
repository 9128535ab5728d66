// Command e2ebench is the repository's end-to-end benchmark. It drives one
// workload through the paper's deployment — udsm.Manager → dscl (in-process
// cache, gzip, aes128) → kv/resilient → a real store over HTTP, RESP or a
// WAL fsync — from two closed-loop clients, checks every value it reads
// back, and prints its metrics.
//
//	e2ebench --workload cloud-read --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it puts
// a probe at every layer boundary and reports each layer's self time and
// counters instead, from traced blocks alternating with untraced ones. The
// workloads and the layer-to-metric map are in spec.json. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The command exits 1 when a check fails and 2 when the run
// cannot complete.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (see spec.json)")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()

	correct, err := run(*name, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	if !correct {
		os.Exit(1)
	}
}

// run runs the benchmark and reports whether every check passed.
func run(name string, seed int64, seconds, trace int) (bool, error) {
	sp, err := loadSpec()
	if err != nil {
		return false, err
	}
	w, err := sp.workload(name)
	if err != nil {
		return false, err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return false, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "e2ebench-data", fmt.Sprintf("%s-%d", name, os.Getpid())))
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)

	fsync, err := fsyncLatency(dir)
	if err != nil {
		return false, err
	}
	fmt.Printf("env: go=%s gomaxprocs=%d cpu=%q fsync_us=%.1f\n",
		runtime.Version(), runtime.GOMAXPROCS(0), cpuModel(), fsync.Seconds()*1e6)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d loop=closed clients=%d\n  %s\n",
		w.Name, seed, seconds, trace, sp.Clients, w.Sizes)

	steal0, total0 := cpuTicks()
	res, err := benchmark(config{
		workload: w, clients: sp.Clients, seed: seed,
		seconds: time.Duration(seconds) * time.Second, trace: trace == 1,
		dir: dir, log: os.Stdout,
	})
	if err != nil {
		return false, err
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		// A shared host that takes the CPUs away slows every number alike.
		fmt.Printf("cpu steal during the run: %.1f%%\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	failedFrac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%-40s %14.4f %s (%d of %d)\n", "failed_frac", failedFrac, "frac", res.Failed, res.Attempted)
	out, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return res.Correct, nil
}

// fsyncLatency is the median time to write and fsync 4 KiB in dir.
func fsyncLatency(dir string) (time.Duration, error) {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var ds []float64
	for i := 0; i < 21; i++ {
		start := time.Now()
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return time.Duration(median(ds)), nil
}

// cpuModel names the processor, where the system says.
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

// cpuTicks returns the system's cumulative stolen and total CPU ticks, or
// zeros where the system does not say.
func cpuTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for _, f := range fields[1:9] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		steal = n
	}
	return steal, total
}
