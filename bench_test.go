package edsc

// One benchmark per figure of the paper's evaluation (§V), plus ablation
// benches for the design choices DESIGN.md calls out. These measure the
// same operations as cmd/udsm-bench but through testing.B, so
// `go test -bench=. -benchmem` gives per-operation numbers; run
// cmd/udsm-bench to produce the figures' full data series.
//
// The simulated WAN latency is scaled down (benchScale) so the suite
// completes quickly; orderings and crossovers between stores are preserved.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"edsc/dscl"
	"edsc/future"
	"edsc/internal/benchkit"
	"edsc/internal/cache"
	"edsc/internal/delta"
	"edsc/internal/miniredis"
	"edsc/internal/minisql"
	"edsc/internal/pack"
	"edsc/internal/secure"
	"edsc/kv"
	"edsc/workload"
)

const benchScale = 0.01

var (
	benchEnvOnce sync.Once
	benchEnv     *benchkit.Env
	benchEnvErr  error
)

// env lazily builds the shared five-store environment.
func env(b *testing.B) *benchkit.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		dir, err := os.MkdirTemp("", "edsc-bench-*")
		if err != nil {
			benchEnvErr = err
			return
		}
		benchEnv, benchEnvErr = benchkit.Setup(benchScale, dir)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

var benchSizes = []int{1 << 10, 64 << 10}

func payload(size int) []byte {
	return workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(size)
}

// BenchmarkFig09ReadLatency measures uncached read latency per store and
// size (the curves of Fig. 9).
func BenchmarkFig09ReadLatency(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	for _, name := range benchkit.AllStores() {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%d", name, size), func(b *testing.B) {
				ds, err := e.Store(name)
				if err != nil {
					b.Fatal(err)
				}
				key := fmt.Sprintf("bench9-%d", size)
				if err := ds.Put(ctx, key, payload(size)); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ds.Get(ctx, key); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10WriteLatency measures write latency per store and size
// (Fig. 10).
func BenchmarkFig10WriteLatency(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	for _, name := range benchkit.AllStores() {
		for _, size := range benchSizes {
			b.Run(fmt.Sprintf("%s/%d", name, size), func(b *testing.B) {
				ds, err := e.Store(name)
				if err != nil {
					b.Fatal(err)
				}
				data := payload(size)
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					key := fmt.Sprintf("bench10-%d-%d", size, i%8)
					if err := ds.Put(ctx, key, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchCachedFig measures the 100%-hit read path of one caching figure;
// the miss path is BenchmarkFig09's uncached read, and intermediate hit
// rates are linear combinations (§V's extrapolation).
func benchCachedFig(b *testing.B, storeName string, kind benchkit.CacheKind) {
	e := env(b)
	ctx := context.Background()
	for _, size := range benchSizes {
		b.Run(fmt.Sprintf("hit/%d", size), func(b *testing.B) {
			ds, err := e.Store(storeName)
			if err != nil {
				b.Fatal(err)
			}
			var c dscl.Cache
			if kind == benchkit.InProcess {
				c = dscl.NewInProcessCache(dscl.InProcessOptions{})
			} else {
				c = e.RemoteCache(fmt.Sprintf("b%s%d:", storeName, size))
			}
			client := dscl.New(ds.Inner(), dscl.WithCache(c))
			key := fmt.Sprintf("benchcache-%d", size)
			if err := client.Put(ctx, key, payload(size)); err != nil {
				b.Fatal(err)
			}
			if _, err := client.Get(ctx, key); err != nil { // prime
				b.Fatal(err)
			}
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Get(ctx, key); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig11Cloud1InProcessCache(b *testing.B) {
	benchCachedFig(b, benchkit.Cloud1, benchkit.InProcess)
}

func BenchmarkFig12Cloud1RemoteCache(b *testing.B) {
	benchCachedFig(b, benchkit.Cloud1, benchkit.Remote)
}

func BenchmarkFig13Cloud2InProcessCache(b *testing.B) {
	benchCachedFig(b, benchkit.Cloud2, benchkit.InProcess)
}

func BenchmarkFig14Cloud2RemoteCache(b *testing.B) {
	benchCachedFig(b, benchkit.Cloud2, benchkit.Remote)
}

func BenchmarkFig15SQLInProcessCache(b *testing.B) {
	benchCachedFig(b, benchkit.SQL, benchkit.InProcess)
}

func BenchmarkFig16SQLRemoteCache(b *testing.B) {
	benchCachedFig(b, benchkit.SQL, benchkit.Remote)
}

func BenchmarkFig17FSInProcessCache(b *testing.B) {
	benchCachedFig(b, benchkit.FS, benchkit.InProcess)
}

func BenchmarkFig18FSRemoteCache(b *testing.B) {
	benchCachedFig(b, benchkit.FS, benchkit.Remote)
}

func BenchmarkFig19RedisInProcessCache(b *testing.B) {
	benchCachedFig(b, benchkit.Redis, benchkit.InProcess)
}

// BenchmarkFig20Encryption measures AES-128 seal/open per size (Fig. 20).
func BenchmarkFig20Encryption(b *testing.B) {
	cipher, err := secure.NewCipher(make([]byte, secure.KeySize))
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range benchSizes {
		data := payload(size)
		b.Run(fmt.Sprintf("encrypt/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := cipher.Seal(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		sealed, _ := cipher.Seal(data)
		b.Run(fmt.Sprintf("decrypt/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := cipher.Open(sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig21Compression measures gzip compress/decompress per size
// (Fig. 21).
func BenchmarkFig21Compression(b *testing.B) {
	codec := pack.New(pack.WithSkipThreshold(0))
	for _, size := range benchSizes {
		data := payload(size)
		b.Run(fmt.Sprintf("compress/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Compress(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		comp, _ := codec.Compress(data)
		b.Run(fmt.Sprintf("decompress/%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if _, err := codec.Decompress(comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig08Delta measures delta encode/apply at several change
// fractions of a 64 KiB object (the Fig. 8 companion experiment).
func BenchmarkFig08Delta(b *testing.B) {
	const size = 64 << 10
	enc := delta.NewEncoder(0)
	old := payload(size)
	for _, frac := range []float64{0.01, 0.1, 0.5} {
		updated := append([]byte(nil), old...)
		for i := 0; i < int(frac*size); i++ {
			updated[(i*2654435761)%size] ^= 0xA5
		}
		b.Run(fmt.Sprintf("encode/%.2f", frac), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				enc.Encode(old, updated)
			}
		})
		d := enc.Encode(old, updated)
		b.Run(fmt.Sprintf("apply/%.2f", frac), func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if _, err := delta.Apply(old, d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationEviction compares LRU and greedy-dual-size replacement
// under a skewed access pattern.
func BenchmarkAblationEviction(b *testing.B) {
	for _, policy := range []struct {
		name string
		p    cache.Policy
	}{{"lru", cache.LRU}, {"gds", cache.GreedyDualSize}} {
		b.Run(policy.name, func(b *testing.B) {
			c := cache.New(cache.Config{MaxEntries: 1024, Policy: policy.p})
			val := payload(256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Zipf-ish: 80% of traffic on 20% of keys.
				k := i % 4096
				if i%5 != 0 {
					k = i % 819
				}
				key := fmt.Sprintf("k%d", k)
				if _, ok := c.Get(key); !ok {
					c.PutEntry(key, cache.Entry{Value: val, Cost: 1})
				}
			}
		})
	}
}

// BenchmarkAblationCopyOnCache quantifies the cost of copy-on-cache reads
// as object size grows (reference reads stay flat; copies scale with size —
// the §III trade-off).
func BenchmarkAblationCopyOnCache(b *testing.B) {
	for _, copyMode := range []bool{false, true} {
		for _, size := range []int{1 << 10, 256 << 10} {
			name := fmt.Sprintf("copy=%v/%d", copyMode, size)
			b.Run(name, func(b *testing.B) {
				c := cache.New(cache.Config{CopyOnCache: copyMode})
				c.Put("k", payload(size))
				b.SetBytes(int64(size))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, ok := c.Get("k"); !ok {
						b.Fatal("miss")
					}
				}
			})
		}
	}
}

// BenchmarkAblationDeltaWindow sweeps the WINDOW_SIZE minimum match length
// (§IV) for a small edit on a 64 KiB object.
func BenchmarkAblationDeltaWindow(b *testing.B) {
	const size = 64 << 10
	old := payload(size)
	updated := append([]byte(nil), old...)
	for i := 0; i < 100; i++ {
		updated[(i*997)%size] ^= 1
	}
	for _, w := range []int{4, 8, 16, 32, 64} {
		enc := delta.NewEncoder(w)
		d := enc.Encode(old, updated)
		b.Run(fmt.Sprintf("window%d", w), func(b *testing.B) {
			b.SetBytes(size)
			b.ReportMetric(float64(len(d)), "delta-bytes")
			for i := 0; i < b.N; i++ {
				enc.Encode(old, updated)
			}
		})
	}
}

// BenchmarkAblationPoolSize measures async throughput over a slow store as
// the thread-pool size varies (§II-A's configuration parameter).
func BenchmarkAblationPoolSize(b *testing.B) {
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			pool := future.NewPool(workers)
			defer pool.Close()
			b.ResetTimer()
			const batch = 32
			for i := 0; i < b.N; i++ {
				futs := make([]*future.Future[int], batch)
				for j := range futs {
					futs[j] = future.Go(pool, func() (int, error) {
						time.Sleep(100 * time.Microsecond) // slow data store call
						return 0, nil
					})
				}
				if err := future.WaitAll(context.Background(), futs...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCompressThreshold compares always-gzip against the
// skip-when-incompressible fallback on random (incompressible) data.
func BenchmarkAblationCompressThreshold(b *testing.B) {
	random := workload.SyntheticSource{Compressibility: 0, Seed: 3}.Data(64 << 10)
	for _, mode := range []struct {
		name  string
		codec *pack.Codec
	}{
		{"always", pack.New(pack.WithSkipThreshold(0))},
		{"skip-incompressible", pack.New()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(random)))
			for i := 0; i < b.N; i++ {
				if _, err := mode.codec.Compress(random); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPipeline compares N request/response round trips against
// one pipelined batch of N on the miniredis client.
func BenchmarkAblationPipeline(b *testing.B) {
	srv := miniredis.NewServer(miniredis.ServerConfig{})
	if err := srv.Start(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := miniredis.NewClient(srv.Addr())
	defer client.Close()
	ctx := context.Background()
	const batch = 16
	val := bytes.Repeat([]byte("v"), 64)

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if err := client.Set(ctx, fmt.Sprintf("k%d", j), val, 0); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		cmds := make([][][]byte, batch)
		for j := range cmds {
			cmds[j] = [][]byte{[]byte("SET"), []byte(fmt.Sprintf("k%d", j)), val}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := client.DoPipeline(ctx, cmds); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBatch compares a sequential per-key loop against one
// batched GetMulti/PutMulti of the same 64 keys on Cloud Store 1: the batch
// pays the WAN round trip once instead of 64 times.
func BenchmarkAblationBatch(b *testing.B) {
	e := env(b)
	ds, err := e.Store(benchkit.Cloud1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	const batch = 64
	val := bytes.Repeat([]byte("v"), 256)
	keys := make([]string, batch)
	pairs := make(map[string][]byte, batch)
	for i := range keys {
		keys[i] = fmt.Sprintf("ablbatch:%d", i)
		pairs[keys[i]] = val
	}
	if err := ds.PutMulti(ctx, pairs); err != nil {
		b.Fatal(err)
	}

	b.Run("get-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, err := ds.Get(ctx, k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("get-batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := ds.GetMulti(ctx, keys)
			if err != nil {
				b.Fatal(err)
			}
			if len(got) != batch {
				b.Fatalf("GetMulti returned %d of %d keys", len(got), batch)
			}
		}
	})
	b.Run("put-sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if err := ds.Put(ctx, k, val); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("put-batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ds.PutMulti(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAsyncVsSync contrasts the synchronous and asynchronous UDSM
// interfaces on a slow store: the async batch should complete in roughly
// one store-latency instead of N (§II-A's motivation).
func BenchmarkAsyncVsSync(b *testing.B) {
	e := env(b)
	ctx := context.Background()
	ds, err := e.Store(benchkit.Cloud2)
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.Put(ctx, "async-bench", payload(1024)); err != nil {
		b.Fatal(err)
	}
	const batch = 8
	b.Run("sync", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				if _, err := ds.Get(ctx, "async-bench"); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("async", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			futs := make([]*future.Future[[]byte], batch)
			for j := range futs {
				futs[j] = ds.Async().Get(ctx, "async-bench")
			}
			if err := future.WaitAll(ctx, futs...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKVBaseline measures the raw in-memory store, the floor every
// enhancement is compared against.
func BenchmarkKVBaseline(b *testing.B) {
	store := kv.NewMem("mem")
	ctx := context.Background()
	data := payload(1024)
	if err := store.Put(ctx, "k", data); err != nil {
		b.Fatal(err)
	}
	b.Run("get", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := store.Get(ctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("put", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if err := store.Put(ctx, "k", data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSecondaryIndex measures point queries on the SQL engine
// with and without a CREATE INDEX on the filtered column.
func BenchmarkAblationSecondaryIndex(b *testing.B) {
	for _, indexed := range []bool{false, true} {
		name := "scan"
		if indexed {
			name = "indexed"
		}
		b.Run(name, func(b *testing.B) {
			db := minisql.OpenMemory()
			if _, err := db.Exec(`CREATE TABLE events (id INTEGER PRIMARY KEY, kind TEXT, body TEXT)`); err != nil {
				b.Fatal(err)
			}
			var sb strings.Builder
			sb.WriteString(`INSERT INTO events VALUES `)
			for i := 0; i < 5000; i++ {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 'k%d', 'body-%d')", i, i%50, i)
			}
			if _, err := db.Exec(sb.String()); err != nil {
				b.Fatal(err)
			}
			if indexed {
				if _, err := db.Exec(`CREATE INDEX idx_kind ON events (kind)`); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(fmt.Sprintf(`SELECT COUNT(*) FROM events WHERE kind = 'k%d'`, i%50))
				if err != nil {
					b.Fatal(err)
				}
				if res.Rows[0][0].Int != 100 {
					b.Fatalf("count = %v", res.Rows[0][0])
				}
			}
		})
	}
}

// passthroughLayer is a do-nothing middleware stage: the pure cost of one
// level of Stack indirection plus one step of the kv.As walk.
type passthroughLayer struct{ kv.Store }

func (p passthroughLayer) Unwrap() kv.Store { return p.Store }

func noopLayer(s kv.Store) kv.Store { return passthroughLayer{s} }

// BenchmarkStackOverhead pins the cost of the middleware model on the Get
// hot path: a bare kv.Mem versus the same store under three transparent
// layers, plus the kv.As capability walk itself. Compare get/bare with
// get/stacked3 — the difference is three interface method hops and must
// stay within noise of BenchmarkKVBaseline/get.
func BenchmarkStackOverhead(b *testing.B) {
	ctx := context.Background()
	mem := kv.NewMem("mem")
	data := payload(1024)
	if err := mem.Put(ctx, "k", data); err != nil {
		b.Fatal(err)
	}
	stacked := kv.Stack(mem, noopLayer, noopLayer, noopLayer)

	b.Run("get/bare", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := mem.Get(ctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("get/stacked3", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if _, err := stacked.Get(ctx, "k"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("as/hit-at-base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := kv.As[kv.CompareAndPut](stacked); !ok {
				b.Fatal("capability lost")
			}
		}
	})
	b.Run("as/miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := kv.As[kv.SQL](stacked); ok {
				b.Fatal("capability invented")
			}
		}
	})
}

// TestStackOverheadAllocs is the deterministic guard behind
// BenchmarkStackOverhead: Stack indirection and the kv.As walk must not
// allocate, so a stacked Get costs exactly the allocations of a bare Get.
func TestStackOverheadAllocs(t *testing.T) {
	ctx := context.Background()
	mem := kv.NewMem("mem")
	if err := mem.Put(ctx, "k", payload(1024)); err != nil {
		t.Fatal(err)
	}
	stacked := kv.Stack(mem, noopLayer, noopLayer, noopLayer)

	bare := testing.AllocsPerRun(200, func() {
		if _, err := mem.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	})
	viaStack := testing.AllocsPerRun(200, func() {
		if _, err := stacked.Get(ctx, "k"); err != nil {
			t.Fatal(err)
		}
	})
	if viaStack > bare {
		t.Errorf("stacked Get allocates %.1f, bare Get %.1f: middleware must add none", viaStack, bare)
	}
	if walk := testing.AllocsPerRun(200, func() {
		if _, ok := kv.As[kv.CompareAndPut](stacked); !ok {
			t.Fatal("capability lost")
		}
	}); walk != 0 {
		t.Errorf("kv.As walk allocates %.1f per call, want 0", walk)
	}
}

// BenchmarkTransformRoundTrip is the append-style APIs' headline
// before/after: one 4 KiB value through the compress+encrypt pipeline and
// back. "legacy" is the slice-returning path every caller used before the
// append-style APIs existed (fresh output per stage); "append" chains pooled
// scratch through the pipeline and reuses destination buffers. The
// acceptance bar is a >= 50% reduction in allocs/op and B/op, recorded in
// the alloc report of BENCH_GATES.json.
func BenchmarkTransformRoundTrip(b *testing.B) {
	value := bytes.Repeat([]byte("abcdefgh"), 512) // 4 KiB, compressible
	tr := dscl.Chain(
		dscl.Compression(dscl.CompressionOptions{}),
		dscl.EncryptionFromPassphrase("bench"),
	)

	b.Run("legacy", func(b *testing.B) {
		// Per-stage slice-returning calls, as the pre-append pipeline ran
		// them: every stage allocates its output.
		pc := pack.New()
		sc := secure.NewCipherFromPassphrase("bench")
		b.ReportAllocs()
		b.SetBytes(int64(len(value)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			comp, err := pc.Compress(value)
			if err != nil {
				b.Fatal(err)
			}
			env, err := sc.Seal(comp)
			if err != nil {
				b.Fatal(err)
			}
			ct, err := sc.Open(env)
			if err != nil {
				b.Fatal(err)
			}
			out, err := pc.Decompress(ct)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != len(value) {
				b.Fatal("round trip corrupted payload")
			}
		}
	})

	b.Run("append", func(b *testing.B) {
		at := tr.(dscl.AppendTransform)
		var enc, dec []byte
		b.ReportAllocs()
		b.SetBytes(int64(len(value)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			enc, err = at.EncodeTo(enc[:0], value)
			if err != nil {
				b.Fatal(err)
			}
			dec, err = at.DecodeTo(dec[:0], enc)
			if err != nil {
				b.Fatal(err)
			}
			if len(dec) != len(value) {
				b.Fatal("round trip corrupted payload")
			}
		}
	})
}
