// Commit-pipeline experiment: closed-loop concurrent writers against the
// file-backed minisql store, serial commits (one WAL fsync per transaction,
// the pre-pipeline engine) vs grouped commits (the leader batches every
// sealed transaction behind one fsync), swept across writer counts. The
// grouped/serial ratio at high concurrency is the group-commit win — fsync
// cost is a property of the disk, so the ratio holds across machines even
// when absolute ops/sec vary.
package benchkit

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"edsc/udsm"
	"edsc/workload"
)

// runCommit drives the pure-write closed loop (every write is one
// autocommit transaction, i.e. one commit) through a file-backed SQL store,
// once per (mode, writers) cell at 1/4/16/64 writers plus one Zipfian
// hot-key pair at 16: group_commit=off replays the pre-pipeline engine,
// group_commit=on exercises the pipeline. Values are 128 B — small values
// keep the workload commit-bound, the regime group commit exists for.
//
// Each cell is measured three times and the fastest run is kept: commit
// benchmarks sit on fsync, and fsync stalls on shared storage only ever
// slow a run down — one-sided noise — so best-of-N is the min-time
// estimator of what the machine can actually do.
func runCommit(smoke bool) (*Report, error) {
	writerCounts, zipfWriters, ops, keys, runs := []int{1, 4, 16, 64}, 16, 4000, 512, 3
	if smoke {
		writerCounts, zipfWriters, ops, keys, runs = []int{1, 4}, 4, 200, 32, 1
	}
	rep := &Report{Experiment: "commit", Params: map[string]int{"keys": keys, "value_bytes": 128}}

	type sweep struct {
		writers int
		dist    workload.Distribution
	}
	points := []sweep{}
	for _, w := range writerCounts {
		points = append(points, sweep{w, workload.DistUniform})
	}
	points = append(points, sweep{zipfWriters, workload.DistZipf})
	for _, p := range points {
		for _, mode := range []string{"serial", "grouped"} {
			var best *Cell
			for i := 0; i < runs; i++ {
				c, err := runCommitCell(rep, mode, p.writers, p.dist, ops)
				if err != nil {
					return nil, fmt.Errorf("benchkit: commit cell %s-%dw-%s: %w", mode, p.writers, p.dist, err)
				}
				if best == nil || c.OpsPerSec > best.OpsPerSec {
					best = c
				}
			}
			rep.Cells = append(rep.Cells, *best)
		}
	}
	// Grouped over serial per uniform writer count. At 1 writer there is
	// nothing to group, so the ratio should sit near 1x; it must grow with
	// concurrency.
	rep.Ratios = map[string]float64{}
	for _, w := range writerCounts {
		if sp := opsRatio(rep, commitCellName("grouped", w, workload.DistUniform), commitCellName("serial", w, workload.DistUniform)); sp > 0 {
			rep.Ratios[fmt.Sprintf("speedup_at_%d", w)] = sp
		}
	}
	return rep, nil
}

func commitCellName(mode string, writers int, dist workload.Distribution) string {
	return fmt.Sprintf("%s-%dw-%s", mode, writers, dist)
}

func runCommitCell(rep *Report, mode string, writers int, dist workload.Distribution, ops int) (*Cell, error) {
	dir, err := os.MkdirTemp("", "edsc-commitbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	onOff := "on"
	if mode == "serial" {
		onOff = "off"
	}
	st, err := udsm.OpenSQLStore("commitbench-"+mode, udsm.SQLStoreOptions{
		DSN: fmt.Sprintf("%s?group_commit=%s", filepath.Join(dir, "db"), onOff),
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()

	before, err := st.DB().Stats()
	if err != nil {
		return nil, err
	}
	mr, err := workload.RunMixed(context.Background(), st, workload.MixedConfig{
		Clients:      writers,
		Ops:          ops,
		ReadFraction: -1, // pure writes: every operation is one commit
		Keys:         rep.Params["keys"],
		Size:         rep.Params["value_bytes"],
		Seed:         42,
		KeyPrefix:    "c/",
		Distribution: dist,
	})
	if err != nil {
		return nil, err
	}
	after, err := st.DB().Stats()
	if err != nil {
		return nil, err
	}

	cell := mixedCell(commitCellName(mode, writers, dist), true, mr)
	// Batches committed vs the disk flushes they cost. Serial mode has no
	// grouping counters; a committed batch is simply a commit, and every
	// commit paid an fsync.
	fsyncs := float64(after.WALFsyncs - before.WALFsyncs)
	batches, avgGroup := fsyncs, 0.0
	if mode == "grouped" {
		batches = float64(after.GroupedBatches - before.GroupedBatches)
		if groups := after.GroupCommits - before.GroupCommits; groups > 0 {
			avgGroup = batches / float64(groups)
		}
	}
	cell.Counters = map[string]float64{
		"writers": float64(writers), "wal_fsyncs": fsyncs, "committed_batches": batches, "avg_group": avgGroup,
	}
	return &cell, nil
}

// checkGrouped: every grouped cell at 16+ writers must actually have
// grouped — fewer fsyncs than committed batches — or the pipeline silently
// degraded to serial.
func checkGrouped(r *Report) []string {
	var regs []string
	for _, c := range r.Cells {
		fsyncs, batches := c.Counters["wal_fsyncs"], c.Counters["committed_batches"]
		if strings.HasPrefix(c.Name, "grouped-") && c.Counters["writers"] >= 16 && batches > 0 && fsyncs >= batches {
			regs = append(regs, fmt.Sprintf("%s: %.0f fsyncs for %.0f batches; the pipeline did not group", c.Name, fsyncs, batches))
		}
	}
	return regs
}

func writeCommitDat(w io.Writer, r *Report) error {
	return writeRows(w, fmt.Sprintf("# extension: group commit vs serial commit, write-heavy closed loop (80%% writes, %d rows x %d B), file-backed minisql",
		r.Params["keys"], r.Params["value_bytes"]),
		r, "cell", "writers", "ops_per_sec", "write_p99_ms", "wal_fsyncs", "committed_batches")
}
