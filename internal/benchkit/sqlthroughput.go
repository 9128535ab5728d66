// SQL storage-engine experiment: closed-loop ops/sec and tail latency of
// the paged minisql store in two cache regimes — "cached" (the whole
// dataset resident in the LRU page cache) and "paged" (the dataset roughly
// an order of magnitude larger than the cache, so reads constantly evict
// and fault pages back in from the data file). The gap between the two is
// the cost of running data ≫ RAM, which the storage engine keeps bounded:
// the gates are the data/cache ratio (the regime really is out of RAM) and
// the cached/paged penalty.
package benchkit

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"edsc/udsm"
	"edsc/workload"
)

// runSQL drives the closed-loop mixed workload (90% reads, uniform over the
// whole keyspace so the paged regime cannot hide its working set in the
// cache) through a file-backed SQL store, once per cache regime. Both
// regimes use the same dataset shape and durability settings; only the
// page-cache capacity differs: 8192 pages (32 MiB, comfortably above the
// dataset) vs 64 pages (256 KiB). Values are 4 KiB — one page each,
// spilling to overflow pages past the inline threshold.
func runSQL(smoke bool) (*Report, error) {
	goroutines, ops, keys := 8, 20_000, 1500
	if smoke {
		ops, keys = 200, 32
	}
	rep := &Report{Experiment: "sql", Params: map[string]int{
		"goroutines": goroutines, "keys": keys, "value_bytes": 4096,
	}}
	for _, m := range []struct {
		name       string
		cachePages int
	}{{"cached", 8192}, {"paged", 64}} {
		cell, pageSize, err := runSQLRegime(rep, m.name, m.cachePages, ops)
		if err != nil {
			return nil, fmt.Errorf("benchkit: regime %s: %w", m.name, err)
		}
		rep.Params["page_size"] = pageSize
		rep.Cells = append(rep.Cells, *cell)
	}
	rep.Ratios = map[string]float64{"paged_penalty": opsRatio(rep, "cached", "paged")}
	if p := rep.Cell("paged"); p.Counters["cache_pages"] > 0 {
		rep.Ratios["data_to_cache_ratio"] = p.Counters["data_pages"] / p.Counters["cache_pages"]
	}
	return rep, nil
}

func runSQLRegime(rep *Report, name string, cachePages, ops int) (*Cell, int, error) {
	dir, err := os.MkdirTemp("", "edsc-sqlbench-*")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(dir)

	st, err := udsm.OpenSQLStore("sqlbench-"+name, udsm.SQLStoreOptions{
		Dir:        filepath.Join(dir, "db"),
		CachePages: cachePages,
	})
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()

	mr, err := workload.RunMixed(context.Background(), st, workload.MixedConfig{
		Clients:      rep.Params["goroutines"],
		Ops:          ops,
		ReadFraction: 0.9,
		Keys:         rep.Params["keys"],
		Size:         rep.Params["value_bytes"],
		Seed:         42,
		KeyPrefix:    "s/",
	})
	if err != nil {
		return nil, 0, err
	}
	stats, err := st.DB().Stats()
	if err != nil {
		return nil, 0, err
	}
	cell := mixedCell(name, true, mr)
	cell.Counters = map[string]float64{
		"cache_pages": float64(stats.CacheCap),
		"data_pages":  float64(stats.Pages), // file pages after the run
		"evictions":   float64(stats.Evictions),
	}
	return &cell, stats.PageSize, nil
}

// checkPagedEvictions: the paged regime must actually have evicted pages,
// or the experiment measured nothing.
func checkPagedEvictions(r *Report) []string {
	if p := r.Cell("paged"); p != nil && p.Counters["evictions"] == 0 {
		return []string{"paged regime recorded zero evictions; the cache never overflowed"}
	}
	return nil
}

func writeSQLDat(w io.Writer, r *Report) error {
	return writeRows(w, fmt.Sprintf("# extension: paged SQL storage engine, mixed workload (90%% reads, %d goroutines, %d rows x %d B), file-backed minisql",
		r.Params["goroutines"], r.Params["keys"], r.Params["value_bytes"]),
		r, "regime", "cache_pages", "data_pages", "ops_per_sec", "read_p99_ms", "write_p99_ms")
}
