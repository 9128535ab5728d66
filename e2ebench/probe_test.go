package main

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"edsc/kv"
	"edsc/kv/kvtest"
	"edsc/udsm"
)

// recStore is an in-memory base store that logs every call it receives.
type recStore struct {
	mu   sync.Mutex
	data map[string][]byte
	vers map[string]int
	n    int
	log  []string
}

func newRecStore() *recStore {
	return &recStore{data: map[string][]byte{}, vers: map[string]int{}}
}

func (s *recStore) note(op string, keys ...string) {
	s.log = append(s.log, op+" "+strings.Join(keys, ","))
}

func (s *recStore) set(key string, v []byte) kv.Version {
	s.n++
	s.data[key] = append([]byte(nil), v...)
	s.vers[key] = s.n
	return kv.Version(fmt.Sprint(s.n))
}

func (s *recStore) Name() string { return "rec" }

func (s *recStore) Get(_ context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("get", key)
	v, ok := s.data[key]
	if !ok {
		return nil, kv.ErrNotFound
	}
	return v, nil
}

func (s *recStore) Put(_ context.Context, key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("put", key)
	s.set(key, value)
	return nil
}

func (s *recStore) Delete(_ context.Context, key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("delete", key)
	if _, ok := s.data[key]; !ok {
		return kv.ErrNotFound
	}
	delete(s.data, key)
	return nil
}

func (s *recStore) Contains(_ context.Context, key string) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("contains", key)
	_, ok := s.data[key]
	return ok, nil
}

func (s *recStore) Keys(context.Context) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("keys")
	var ks []string
	for k := range s.data {
		ks = append(ks, k)
	}
	return ks, nil
}

func (s *recStore) Len(context.Context) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("len")
	return len(s.data), nil
}

func (s *recStore) Clear(context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("clear")
	s.data = map[string][]byte{}
	return nil
}

func (s *recStore) Close() error { return nil }

// recBatch adds kv.Batch.
type recBatch struct{ *recStore }

func (s recBatch) GetMulti(_ context.Context, keys []string) (map[string][]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("getmulti", keys...)
	out := map[string][]byte{}
	for _, k := range keys {
		if v, ok := s.data[k]; ok {
			out[k] = v
		}
	}
	return out, nil
}

func (s recBatch) PutMulti(_ context.Context, pairs map[string][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(pairs))
	for k := range pairs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s.note("putmulti", keys...)
	for _, k := range keys {
		s.set(k, pairs[k])
	}
	return nil
}

// recVersioned models the cloud store and the cluster: versions, versioned
// batch reads and compare-and-put.
type recVersioned struct{ recBatch }

func (s recVersioned) GetVersioned(_ context.Context, key string) ([]byte, kv.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("getversioned", key)
	v, ok := s.data[key]
	if !ok {
		return nil, kv.NoVersion, kv.ErrNotFound
	}
	return v, kv.Version(fmt.Sprint(s.vers[key])), nil
}

func (s recVersioned) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	v, ver, err := s.GetVersioned(ctx, key)
	if err != nil || ver == since {
		return nil, ver, false, err
	}
	return v, ver, true, nil
}

func (s recVersioned) PutVersioned(_ context.Context, key string, value []byte) (kv.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("putversioned", key)
	return s.set(key, value), nil
}

func (s recVersioned) PutIfVersion(_ context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("putifversion", key)
	if cur, ok := s.vers[key]; (ok && kv.Version(fmt.Sprint(cur)) != since) || (!ok && since != kv.NoVersion) {
		return kv.NoVersion, kv.ErrVersionMismatch
	}
	return s.set(key, value), nil
}

func (s recVersioned) GetMultiVersioned(_ context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note("getmultiversioned", keys...)
	out := map[string]kv.VersionedValue{}
	for _, k := range keys {
		if v, ok := s.data[k]; ok {
			out[k] = kv.VersionedValue{Value: v, Version: kv.Version(fmt.Sprint(s.vers[k]))}
		}
	}
	return out, nil
}

// recSQL models minisql: batches and native SQL.
type recSQL struct{ recBatch }

func (s recSQL) Exec(context.Context, string) (int, error) { return 0, nil }

func (s recSQL) Query(context.Context, string) (*kv.Rows, error) { return &kv.Rows{}, nil }

// fakeBase returns a logging store with the capabilities of the given
// workload's real base store (TestFakeBasesMatchRealBases pins that).
func fakeBase(store string) (kv.Store, *recStore) {
	r := newRecStore()
	if store == "minisql" {
		return recSQL{recBatch{r}}, r
	}
	return recVersioned{recBatch{r}}, r
}

// capsOf reports which kv capabilities the kv.As walk finds on s.
func capsOf(s kv.Store) map[string]bool {
	_, v := kv.As[kv.Versioned](s)
	_, b := kv.As[kv.Batch](s)
	_, vb := kv.As[kv.VersionedBatch](s)
	_, cas := kv.As[kv.CompareAndPut](s)
	_, ex := kv.As[kv.Expiring](s)
	_, sql := kv.As[kv.SQL](s)
	return map[string]bool{
		"Versioned": v, "Batch": b, "VersionedBatch": vb,
		"CompareAndPut": cas, "Expiring": ex, "SQL": sql,
	}
}

// small shrinks a workload for tests.
func small(w workloadSpec, keys int) workloadSpec {
	if w.CacheEntries > 0 {
		w.CacheEntries = max(keys/10, 1)
	}
	w.Keys = keys
	return w
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestFakeBasesMatchRealBases(t *testing.T) {
	for _, w := range testSpec(t).Workloads {
		d, err := openBase(small(w, 10), 1, t.TempDir(), nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		real := capsOf(d.base)
		d.close()
		fake, _ := fakeBase(w.Store)
		if got := capsOf(fake); !reflect.DeepEqual(got, real) {
			t.Errorf("%s: fake base has %v, real base %v", w.Name, got, real)
		}
	}
}

// The probed stack answers kv.As like the unprobed one, its base store
// receives exactly the same calls for a fixed seed, and every call that
// reaches the base passes through the probes above it.
func TestProbedStackMatchesUnprobed(t *testing.T) {
	const keys, ops = 64, 400
	ctx := context.Background()
	for _, w := range testSpec(t).Workloads {
		w := small(w, keys)
		t.Run(w.Name, func(t *testing.T) {
			var logs [2][]string
			var caps [2]map[string]bool
			for i, probed := range []bool{false, true} {
				var tr *tracer
				if probed {
					tr = newTracer(1<<16, 1)
				}
				base, rec := fakeBase(w.Store)
				d := &deployment{spec: w, seed: 1}
				if err := d.stack(base, tr); err != nil {
					t.Fatal(err)
				}
				vals := newValues(keys, w.ValueBytes, 1)
				if err := d.preload(ctx, vals); err != nil {
					t.Fatal(err)
				}
				// The preload writes the cache through in map order; compare
				// runs that start from an empty one.
				if d.cache != nil {
					if err := d.cache.Clear(ctx); err != nil {
						t.Fatal(err)
					}
				}
				caps[i] = capsOf(d.top)
				preloadCalls := len(rec.log)
				if probed {
					tr.on.Store(true)
				}
				c := newClients(config{workload: w, clients: 1, seed: 7, log: io.Discard}, vals)[0]
				for n := 0; n < ops; n++ {
					c.step(d, vals, tr)
				}
				if c.errs+c.wrong != 0 {
					t.Fatalf("probed=%v: %d errors, %d wrong values", probed, c.errs, c.wrong)
				}
				logs[i] = rec.log
				if !probed {
					continue
				}
				var an attribution
				an.add(tr.recorded())
				if err := an.check(); err != nil {
					t.Fatal(err)
				}
				baseCalls := len(rec.log) - preloadCalls
				bl := baseLayers[w.Store]
				if an.ops != ops || an.calls[layerDSCL] != ops {
					t.Errorf("traced %d operations, %d DSCL calls; want %d", an.ops, an.calls[layerDSCL], ops)
				}
				if an.calls[bl] != baseCalls || an.childCalls[layerResilient] != baseCalls {
					t.Errorf("base received %d calls; its probe saw %d, resilient's children %d",
						baseCalls, an.calls[bl], an.childCalls[layerResilient])
				}
				if an.calls[layerGzip] == 0 || an.calls[layerAES] == 0 || an.backgroundSpans != 0 {
					t.Errorf("transform spans: gzip %d, aes %d, unattributed %d",
						an.calls[layerGzip], an.calls[layerAES], an.backgroundSpans)
				}
				if w.CacheEntries > 0 && an.calls[layerCache] == 0 {
					t.Error("no cache spans")
				}
			}
			if !reflect.DeepEqual(caps[0], caps[1]) {
				t.Errorf("kv.As answers differ: unprobed %v, probed %v", caps[0], caps[1])
			}
			if !reflect.DeepEqual(logs[0], logs[1]) {
				t.Errorf("base call sequences differ (%d vs %d calls)", len(logs[0]), len(logs[1]))
			}
		})
	}
}

func TestTransformProbeKeepsAppendPath(t *testing.T) {
	tr := newTracer(16, 1)
	for _, tf := range transformsFor(1) {
		_, inner := tf.(interface {
			EncodeTo(dst, value []byte) ([]byte, error)
		})
		_, probed := probeTransform(tf, tr, layerGzip).(interface {
			EncodeTo(dst, value []byte) ([]byte, error)
		})
		if inner != probed {
			t.Errorf("%s: append path %v, probed %v", tf.Name(), inner, probed)
		}
	}
}

// The probe alone passes the repository's stack conformance suite over
// base stores that between them have every capability.
func TestProbeConformance(t *testing.T) {
	tr := newTracer(1<<16, 1)
	tr.on.Store(true)
	layer := kvtest.StackLayer{Name: "probe", Layer: probeLayer(tr, layerCloudsim)}
	t.Run("cluster", func(t *testing.T) {
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			var nodes []udsm.ClusterNode
			for _, id := range []string{"a", "b"} {
				nodes = append(nodes, udsm.ClusterNode{ID: id, Store: kv.NewMem(id)})
			}
			c, err := udsm.NewClusterStore("c", nodes, udsm.ClusterOptions{Replication: 2})
			if err != nil {
				t.Fatal(err)
			}
			return c, func() { _ = c.Close() }
		}, layer)
	})
	t.Run("miniredis", func(t *testing.T) {
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
			if err != nil {
				t.Fatal(err)
			}
			s := udsm.OpenMiniRedis("r", srv.Addr(), "")
			return s, func() { _ = s.Close(); _ = srv.Close() }
		}, layer)
	})
	t.Run("minisql", func(t *testing.T) {
		kvtest.RunStack(t, func(t *testing.T) (kv.Store, func()) {
			s, err := udsm.OpenSQLStore("q", udsm.SQLStoreOptions{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			return s, func() { _ = s.Close() }
		}, layer)
	})
}
