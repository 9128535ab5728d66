package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

const (
	// An untraced run sets up at least minSetups times and until the
	// set-ups together took setupTime, and reports the median.
	minSetups = 3
	setupTime = 5 * time.Second
	// warmup runs the workload untimed after set-up, so the caches fill
	// and connection pools and the heap reach their steady state.
	warmup = 2 * time.Second
	// window is the length of one measurement window of an untraced run.
	window = time.Second
	// block is the length of one traced or untraced block of a traced run.
	block = 500 * time.Millisecond
	// spanCapacity bounds the spans one traced block records.
	spanCapacity = 1 << 19
	// maxReports caps the wrong values printed.
	maxReports = 5
)

// config is one invocation of the benchmark.
type config struct {
	workload workloadSpec
	clients  int
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string    // directory for the run's files
	log      io.Writer // human-readable report
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict and numbers.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// client is one closed-loop application thread. It owns a disjoint share of
// the keys, so every key has one writer and each read must return exactly
// the last write acknowledged for its key.
type client struct {
	id   int
	ctx  context.Context
	rng  *rand.Rand
	zipf *rand.Zipf // nil picks keys uniformly
	keys []int      // owned keys, hottest first

	acked []uint32 // per owned key: the last acknowledged write
	maybe []uint32 // per owned key: a write whose outcome is unknown (0 = none)

	// Latency samples are kept while timing, from the given start.
	timing     bool
	timedFrom  time.Time
	gets, puts []sample
	ops, errs  int64
	wrong      int64
	putBytes   int64
	log        io.Writer
}

func newClients(cfg config, vals *values) []*client {
	n := cfg.workload.Keys
	perm := rand.New(rand.NewSource(cfg.seed)).Perm(n)
	cs := make([]*client, cfg.clients)
	for i := range cs {
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(i) + 1))
		c := &client{id: i, ctx: withWorker(context.Background(), i), rng: rng, log: cfg.log}
		for _, k := range perm {
			if k%cfg.clients == i {
				c.keys = append(c.keys, k)
			}
		}
		c.acked = make([]uint32, len(c.keys))
		c.maybe = make([]uint32, len(c.keys))
		if cfg.workload.ZipfS > 0 {
			c.zipf = rand.NewZipf(rng, cfg.workload.ZipfS, 1, uint64(len(c.keys)-1))
		}
		cs[i] = c
	}
	return cs
}

func (c *client) pick() int {
	if c.zipf != nil {
		return int(c.zipf.Uint64())
	}
	return c.rng.Intn(len(c.keys))
}

// run issues operations until the deadline, or until the tracer's buffer
// is nearly full.
func (c *client) run(d *deployment, vals *values, tr *tracer, until time.Time) {
	for {
		done := c.step(d, vals, tr)
		if !done.Before(until) || (tr != nil && tr.nearlyFull()) {
			return
		}
	}
}

// step issues one operation and returns when it completed.
func (c *client) step(d *deployment, vals *values, tr *tracer) time.Time {
	j := c.pick()
	if c.rng.Float64() < d.spec.GetFrac {
		return c.get(d, vals, tr, j)
	}
	return c.put(d, vals, tr, j)
}

func (c *client) get(d *deployment, vals *values, tr *tracer, j int) time.Time {
	k := c.keys[j]
	ctx, root := tr.begin(c.ctx, layerUDSM, opGet)
	start := time.Now()
	v, err := d.top.Get(ctx, vals.names[k])
	done := time.Now()
	tr.end(root)
	c.ops++
	if c.timing {
		c.gets = append(c.gets, c.sample(start, done))
	}
	switch {
	case err != nil:
		c.errs++
		c.report("get %s: %v", vals.names[k], err)
	case vals.is(v, k, c.acked[j]):
	case c.maybe[j] != 0 && vals.is(v, k, c.maybe[j]):
		c.acked[j], c.maybe[j] = c.maybe[j], 0
	default:
		c.wrong++
		c.report("get %s: want write %d, got %s", vals.names[k], c.acked[j], describe(v))
	}
	return done
}

func (c *client) put(d *deployment, vals *values, tr *tracer, j int) time.Time {
	k := c.keys[j]
	seq := max(c.acked[j], c.maybe[j]) + 1
	v := vals.make(k, seq)
	ctx, root := tr.begin(c.ctx, layerUDSM, opPut)
	start := time.Now()
	err := d.top.Put(ctx, vals.names[k], v)
	done := time.Now()
	tr.end(root)
	c.ops++
	c.putBytes += int64(len(v))
	if c.timing {
		c.puts = append(c.puts, c.sample(start, done))
	}
	if err != nil {
		c.errs++
		c.maybe[j] = seq
		c.report("put %s: %v", vals.names[k], err)
		return done
	}
	c.acked[j], c.maybe[j] = seq, 0
	return done
}

// sample is one timed operation: when it completed, relative to the start
// of timing, and how long it took.
type sample struct{ at, ns time.Duration }

func (c *client) sample(start, done time.Time) sample {
	return sample{at: done.Sub(c.timedFrom), ns: done.Sub(start)}
}

func (c *client) report(format string, args ...any) {
	if c.errs+c.wrong <= maxReports {
		fmt.Fprintf(c.log, "client %d: "+format+"\n", append([]any{c.id}, args...)...)
	}
}

// phase runs every client until the deadline and returns the wall time.
func phase(cs []*client, d *deployment, vals *values, tr *tracer, length time.Duration) time.Duration {
	start := time.Now()
	until := start.Add(length)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(d, vals, tr, until)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// tally is a snapshot of the counters the layers keep.
type tally struct {
	ops, putBytes                   int64
	cacheHits, cacheLookups         int64
	tfIn, tfOut, evictions, repairs int64
	retries                         int64 // resilient retries and hedges
	pageHits, pageMisses            int64
	fsyncs, groupedCommits          int64
	mallocs, gcs                    int64
}

func (d *deployment) tally(cs []*client) tally {
	var t tally
	for _, c := range cs {
		t.ops += c.ops
		t.putBytes += c.putBytes
	}
	st := d.client.Stats()
	t.cacheHits = st.CacheHits
	t.cacheLookups = st.CacheHits + st.CacheMisses + st.StaleHits
	t.tfIn, t.tfOut = st.TransformInBytes, st.TransformOutBytes
	if d.cache != nil {
		t.evictions = d.cache.Stats().Evictions
	}
	rs := d.res.Stats()
	t.retries = rs.Retries + rs.Hedges
	if d.clus != nil {
		t.repairs = d.clus.Stats().ReadRepairs
	}
	if d.sql != nil {
		// The counters are valid even when the free-list walk behind
		// Stats fails, so its error is not needed here.
		ps, _ := d.sql.DB().Stats()
		t.pageHits, t.pageMisses = int64(ps.Hits), int64(ps.Misses)
		t.fsyncs, t.groupedCommits = int64(ps.WALFsyncs), int64(ps.GroupedBatches)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.mallocs, t.gcs = int64(ms.Mallocs), int64(ms.NumGC)
	return t
}

func (t tally) minus(u tally) tally { return t.add(u, -1) }

func (t tally) plus(u tally) tally { return t.add(u, 1) }

func (t tally) add(u tally, sign int64) tally {
	return tally{
		ops: t.ops + sign*u.ops, putBytes: t.putBytes + sign*u.putBytes,
		cacheHits: t.cacheHits + sign*u.cacheHits, cacheLookups: t.cacheLookups + sign*u.cacheLookups,
		tfIn: t.tfIn + sign*u.tfIn, tfOut: t.tfOut + sign*u.tfOut,
		evictions: t.evictions + sign*u.evictions, repairs: t.repairs + sign*u.repairs,
		retries:  t.retries + sign*u.retries,
		pageHits: t.pageHits + sign*u.pageHits, pageMisses: t.pageMisses + sign*u.pageMisses,
		fsyncs: t.fsyncs + sign*u.fsyncs, groupedCommits: t.groupedCommits + sign*u.groupedCommits,
		mallocs: t.mallocs + sign*u.mallocs, gcs: t.gcs + sign*u.gcs,
	}
}

// heapSampler records the peak Go heap while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			select {
			case <-h.stop:
				h.done <- float64(peak)
				return
			case <-tick.C:
				metrics.Read(s)
				peak = max(peak, s[0].Value.Uint64())
			}
		}
	}()
	return h
}

// peak stops the sampler and returns the peak heap in bytes.
func (h *heapSampler) peak() float64 {
	close(h.stop)
	return <-h.done
}

// benchmark sets up, runs and checks one workload.
func benchmark(cfg config) (*result, error) {
	ctx := context.Background()
	vals := newValues(cfg.workload.Keys, cfg.workload.ValueBytes, cfg.seed)
	var tr *tracer
	if cfg.trace {
		tr = newTracer(spanCapacity, cfg.clients)
	}

	runs := minSetups
	if cfg.trace {
		runs = 1 // set-up time is an untraced metric
	}
	var setups []float64
	var d *deployment
	for i, spent := 0, 0.0; i < runs; i++ {
		dir := filepath.Join(cfg.dir, fmt.Sprintf("store%d", i))
		start := time.Now()
		var err error
		d, err = deploy(cfg.workload, cfg.seed, dir, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := d.preload(ctx, vals); err != nil {
			d.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if spent += setups[i]; !cfg.trace && i == runs-1 && spent < setupTime.Seconds() {
			runs++
		}
		if i < runs-1 {
			d.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer d.close()
	if cfg.workload.Store == "minisql" {
		if ps, err := d.sql.DB().Stats(); err == nil {
			fmt.Fprintf(cfg.log, "minisql: %d data pages, page cache %d pages\n", ps.Pages, ps.CacheCap)
		}
	}

	cs := newClients(cfg, vals)
	phase(cs, d, vals, nil, warmup)

	res := &result{Metrics: map[string]metric{}}
	var err error
	if cfg.trace {
		err = traced(cfg, d, cs, vals, tr, res)
	} else {
		err = untraced(cfg, d, cs, vals, res, setups)
	}
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		res.Attempted += c.ops
		res.Failed += c.errs + c.wrong
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// untraced measures the end-to-end metrics. The timed phase is cut into
// one-second windows and each rate and median latency is the median of its
// per-window values, so a burst of interference in one window moves no
// reported number. The put median and the p99 latencies are printed with
// their sample counts but left out of the result line: on a shared host
// they move by more than any useful bound between runs of the same code.
// The put median swings further than throughput when the host's speed
// drifts, because puts carry the workloads' heaviest allocation.
func untraced(cfg config, d *deployment, cs []*client, vals *values, res *result, setups []float64) error {
	start := time.Now()
	for _, c := range cs {
		c.timing, c.timedFrom = true, start
	}
	heap := sampleHeap()
	phase(cs, d, vals, nil, cfg.seconds)
	heapPeak := heap.peak()

	nw := int(cfg.seconds / window)
	type win struct{ gets, puts []float64 }
	wins := make([]win, nw)
	var allGets, allPuts []float64
	for _, c := range cs {
		c.timing = false
		for _, s := range c.gets {
			if w := int(s.at / window); w < nw {
				wins[w].gets = append(wins[w].gets, float64(s.ns))
				allGets = append(allGets, float64(s.ns))
			}
		}
		for _, s := range c.puts {
			if w := int(s.at / window); w < nw {
				wins[w].puts = append(wins[w].puts, float64(s.ns))
				allPuts = append(allPuts, float64(s.ns))
			}
		}
	}
	var rate, getP50, putP50 []float64
	for _, w := range wins {
		rate = append(rate, float64(len(w.gets)+len(w.puts))/window.Seconds())
		getP50 = append(getP50, percentile(w.gets, 0.50))
		putP50 = append(putP50, percentile(w.puts, 0.50))
	}

	checkStart := time.Now()
	chk, err := finalCheck(cfg, d, cs, vals)
	if err != nil {
		return err
	}
	res.Correct = chk.bad == 0
	res.Attempted += int64(chk.checked)
	res.Failed += int64(chk.bad)

	us := func(ns float64) float64 { return ns / 1e3 }
	m := res.Metrics
	m["ops_per_s"] = metric{median(rate), "1/s"}
	m["get_p50_us"] = metric{us(median(getP50)), "us"}
	m["setup_s"] = metric{median(setups), "s"}
	m["stored_bytes_per_user_byte"] = metric{float64(chk.stored) / float64(chk.plain), "B/B"}
	m["heap_peak_mb"] = metric{heapPeak / (1 << 20), "MB"}

	fmt.Fprintf(cfg.log, "samples: get %d, put %d in %d windows of %v; set-up runs %.3f s; read-back %.1f s\n",
		len(allGets), len(allPuts), nw, window, setups, time.Since(checkStart).Seconds())
	const unlisted = "%-40s %14.4f us (%s; not in the result line)\n"
	fmt.Fprintf(cfg.log, unlisted, "put_p50_us", us(median(putP50)), "median of windows")
	fmt.Fprintf(cfg.log, unlisted, "get_p99_us", us(percentile(allGets, 0.99)), fmt.Sprintf("whole run, %d samples", len(allGets)))
	fmt.Fprintf(cfg.log, unlisted, "put_p99_us", us(percentile(allPuts, 0.99)), fmt.Sprintf("whole run, %d samples", len(allPuts)))
	return nil
}

// traced alternates untraced and traced blocks: the traced ones give the
// per-layer metrics, and the pair gives the probes' overhead.
func traced(cfg config, d *deployment, cs []*client, vals *values, tr *tracer, res *result) error {
	var an attribution
	var on, off tally
	var onTime, offTime time.Duration
	var walBytes int64
	for i := 0; onTime+offTime < cfg.seconds; i++ {
		recording := i%2 == 1
		before := d.tally(cs)
		if recording && d.wal != nil {
			d.wal.start()
		}
		tr.on.Store(recording)
		elapsed := phase(cs, d, vals, tr, min(block, cfg.seconds-onTime-offTime))
		tr.on.Store(false)
		delta := d.tally(cs).minus(before)
		if !recording {
			off, offTime = off.plus(delta), offTime+elapsed
			continue
		}
		on, onTime = on.plus(delta), onTime+elapsed
		if d.wal != nil {
			walBytes += d.wal.appended()
		}
		if tr.overflowed() {
			return fmt.Errorf("span buffer overflowed")
		}
		an.add(tr.recorded())
	}
	chk, err := finalCheck(cfg, d, cs, vals)
	if err != nil {
		return err
	}
	res.Correct = chk.bad == 0
	res.Attempted += int64(chk.checked)
	res.Failed += int64(chk.bad)
	if err := an.check(); err != nil {
		fmt.Fprintf(cfg.log, "self-time check failed: %v\n", err)
		res.Correct = false
	}
	if an.backgroundSpans > 0 {
		fmt.Fprintf(cfg.log, "background: %d spans with no operation\n", an.backgroundSpans)
	}
	layerMetrics(res.Metrics, &an, on, off, onTime, offTime, walBytes, chk)
	return nil
}

// layerMetrics fills in the per-layer metrics of a traced run. Layers a
// workload's stack lacks report 0.
func layerMetrics(m map[string]metric, an *attribution, on, off tally, onTime, offTime time.Duration, walBytes int64, chk check) {
	ops := float64(an.ops)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(ns float64) float64 { return ns / 1e3 }
	self := func(l layer, q float64) float64 { return us(percentile(an.selfOps[l], q)) }
	call := func(l layer, op opKind, q float64) float64 { return us(percentile(an.callDur[l][op], q)) }

	m["udsm.self_us_p50"] = metric{self(layerUDSM, 0.50), "us"}
	m["dscl.self_us_p50"] = metric{self(layerDSCL, 0.50), "us"}
	m["dscl.self_us_p99"] = metric{self(layerDSCL, 0.99), "us"}

	m["dscl.cache.hit_ratio"] = metric{ratio(float64(on.cacheHits), float64(on.cacheLookups)), "ratio"}
	m["dscl.cache.get_us_p50"] = metric{call(layerCache, opGet, 0.50), "us"}
	m["dscl.cache.put_us_p50"] = metric{call(layerCache, opPut, 0.50), "us"}
	m["dscl.cache.evictions_per_op"] = metric{ratio(float64(on.evictions), ops), "count/op"}

	m["dscl.transform.gzip.encode_us_p50"] = metric{call(layerGzip, opEncode, 0.50), "us"}
	m["dscl.transform.gzip.decode_us_p50"] = metric{call(layerGzip, opDecode, 0.50), "us"}
	m["dscl.transform.aes128.encode_us_p50"] = metric{call(layerAES, opEncode, 0.50), "us"}
	m["dscl.transform.aes128.decode_us_p50"] = metric{call(layerAES, opDecode, 0.50), "us"}
	m["dscl.transform.out_bytes_per_in_byte"] = metric{ratio(float64(on.tfOut), float64(on.tfIn)), "B/B"}

	m["resilient.self_us_p50"] = metric{self(layerResilient, 0.50), "us"}
	m["resilient.self_us_p99"] = metric{self(layerResilient, 0.99), "us"}
	resilientCalls := float64(an.calls[layerResilient])
	m["resilient.attempts_per_op"] = metric{ratio(resilientCalls+float64(on.retries), resilientCalls), "count/op"}

	m["cluster.self_us_p50"] = metric{self(layerCluster, 0.50), "us"}
	m["cluster.self_us_p99"] = metric{self(layerCluster, 0.99), "us"}
	m["cluster.replica_calls_per_op"] = metric{ratio(float64(an.childCalls[layerCluster]), float64(an.calls[layerCluster])), "count/op"}
	m["cluster.repairs_per_kop"] = metric{1000 * ratio(float64(on.repairs), ops), "count/kop"}

	for _, l := range []layer{layerCloudsim, layerMiniredis, layerMinisql} {
		name := layerNames[l]
		m[name+".get_us_p50"] = metric{call(l, opGet, 0.50), "us"}
		m[name+".get_us_p99"] = metric{call(l, opGet, 0.99), "us"}
		m[name+".put_us_p50"] = metric{call(l, opPut, 0.50), "us"}
		m[name+".put_us_p99"] = metric{call(l, opPut, 0.99), "us"}
	}
	m["cloudsim.calls_per_op"] = metric{ratio(float64(an.calls[layerCloudsim]), ops), "count/op"}

	m["minisql.page_hit_ratio"] = metric{ratio(float64(on.pageHits), float64(on.pageHits+on.pageMisses)), "ratio"}
	m["minisql.page_misses_per_op"] = metric{ratio(float64(on.pageMisses), ops), "count/op"}
	m["minisql.commits_per_fsync"] = metric{ratio(float64(on.groupedCommits), float64(on.fsyncs)), "count/count"}
	m["minisql.wal_bytes_per_user_byte"] = metric{ratio(float64(walBytes), float64(on.putBytes)), "B/B"}
	m["minisql.disk_bytes_per_user_byte"] = metric{ratio(float64(chk.disk), float64(chk.plain)), "B/B"}

	m["go.allocs_per_op"] = metric{ratio(float64(off.mallocs), float64(off.ops)), "count/op"}
	m["go.gc_cycles_per_kop"] = metric{1000 * ratio(float64(off.gcs), float64(off.ops)), "count/kop"}

	onRate := ratio(float64(on.ops), onTime.Seconds())
	offRate := ratio(float64(off.ops), offTime.Seconds())
	m["trace.overhead_frac"] = metric{ratio(offRate-onRate, offRate), "frac"}
	m["trace.op_us_mean"] = metric{us(ratio(an.opNanos, ops)), "us"}
	m["trace.tail_op_us_mean"] = metric{us(ratio(an.tailNanos, float64(an.tailOps))), "us"}
	for l := layer(0); l < numLayers; l++ {
		m[layerNames[l]+".self_us_mean"] = metric{us(ratio(an.self[l], ops)), "us"}
		m[layerNames[l]+".tail_self_us_mean"] = metric{us(ratio(an.tailSelf[l], float64(an.tailOps))), "us"}
	}
	m["background.us_per_op"] = metric{us(ratio(an.background, ops)), "us"}
}

// check is the outcome of the after-run read-back.
type check struct {
	checked, bad int
	stored, disk int64 // raw bytes held for the keys; minisql file bytes
	plain        int64 // plaintext bytes of the keys' values
}

// finalCheck reads every key back beneath the cache, after reopening the
// database from disk for minisql, and compares it with the last write
// acknowledged for it. It also measures what the base stores hold.
func finalCheck(cfg config, d *deployment, cs []*client, vals *values) (check, error) {
	ctx := context.Background()
	chk := check{plain: int64(len(vals.names)) * int64(vals.size)}
	var err error
	if chk.stored, err = d.storedBytes(ctx, vals.names); err != nil {
		return chk, err
	}
	store := d.base
	if d.sql != nil {
		chk.disk = d.diskBytes()
		sql, err := d.reopenSQL()
		if err != nil {
			return chk, fmt.Errorf("reopening the database: %w", err)
		}
		defer sql.Close()
		store = sql
	}
	got, err := readBack(ctx, store, transformsFor(d.seed), vals.names)
	if err != nil {
		return chk, err
	}
	for _, c := range cs {
		for j, k := range c.keys {
			chk.checked++
			v, ok := got[vals.names[k]]
			switch {
			case ok && vals.is(v, k, c.acked[j]):
			case ok && c.maybe[j] != 0 && vals.is(v, k, c.maybe[j]):
			default:
				chk.bad++
				if chk.bad <= maxReports {
					what := "missing"
					if ok {
						what = describe(v)
					}
					fmt.Fprintf(cfg.log, "read-back %s: want write %d, got %s\n", vals.names[k], c.acked[j], what)
				}
			}
		}
	}
	return chk, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
