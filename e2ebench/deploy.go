package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"

	"edsc/dscl"
	"edsc/kv"
	"edsc/kv/resilient"
	"edsc/udsm"
)

// preloadChunk is the number of keys one preload PutMulti carries.
const preloadChunk = 1000

// deployment is one workload's running stack: udsm.Manager → dscl (cache,
// gzip, aes128) → kv/resilient → the base store, with its servers.
type deployment struct {
	spec workloadSpec
	mgr  *udsm.Manager
	top  *udsm.DataStore

	client *dscl.Client
	cache  *dscl.InProcessCache // nil without a DSCL cache
	res    *resilient.Store
	clus   *udsm.ClusterStore // cluster-mixed only
	sql    *udsm.SQLStore     // sql-write only
	wal    *walMeter          // sql-write only, when traced

	// base is the store beneath the resilience layer; raw lists the stores
	// that hold the bytes (the cluster's nodes, or base itself).
	base    kv.Store
	raw     []kv.Store
	dir     string
	seed    int64
	servers []func() error
}

// encryptionKey derives the run's AES key from its seed.
func encryptionKey(seed int64) []byte {
	key := make([]byte, dscl.KeySize)
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(key)
	return key
}

// transformsFor returns the DSCL value pipeline: gzip, then AES-128 with a
// key derived from the seed.
func transformsFor(seed int64) []dscl.Transform {
	aes, err := dscl.Encryption(encryptionKey(seed))
	if err != nil {
		panic(err) // the key is always dscl.KeySize bytes
	}
	return []dscl.Transform{dscl.Compression(dscl.CompressionOptions{}), aes}
}

// baseLayers names the layer each kind of base store is probed as.
var baseLayers = map[string]layer{"cloudsim": layerCloudsim, "minisql": layerMinisql, "cluster": layerCluster}

// deploy starts the workload's servers, opens its stores and builds the
// stack. With a tracer, a probe sits at every layer boundary.
func deploy(w workloadSpec, seed int64, dir string, tr *tracer) (*deployment, error) {
	d, err := openBase(w, seed, dir, tr)
	if err != nil {
		d.close()
		return nil, err
	}
	if err := d.stack(d.base, tr); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// openBase starts the servers and opens the store beneath the resilience
// layer.
func openBase(w workloadSpec, seed int64, dir string, tr *tracer) (*deployment, error) {
	d := &deployment{spec: w, dir: dir, seed: seed}
	switch w.Store {
	case "cloudsim":
		srv, err := udsm.StartCloudSim(udsm.ProfileLocal, 0)
		if err != nil {
			return d, err
		}
		d.servers = append(d.servers, srv.Close)
		d.base = udsm.OpenCloudStoreWith(w.Name, srv.URL(), "bench", udsm.CloudOptions{MaxConnsPerHost: 2})
		d.raw = []kv.Store{d.base}
	case "minisql":
		sql, err := udsm.OpenSQLStore(w.Name, udsm.SQLStoreOptions{Dir: dir, CachePages: w.CachePages})
		if err != nil {
			return d, err
		}
		d.sql, d.base, d.raw = sql, sql, []kv.Store{sql}
	case "cluster":
		var nodes []udsm.ClusterNode
		for i := 0; i < 2; i++ {
			srv, err := udsm.StartMiniRedis(udsm.MiniRedisOptions{})
			if err != nil {
				return d, err
			}
			d.servers = append(d.servers, srv.Close)
			id := fmt.Sprintf("node%d", i)
			st := udsm.OpenMiniRedisWith(id, srv.Addr(), "", udsm.MiniRedisClientOptions{Mux: true, MuxConns: 1})
			d.raw = append(d.raw, st)
			nodes = append(nodes, udsm.ClusterNode{ID: id, Store: kv.Stack(st, probeLayer(tr, layerMiniredis))})
		}
		clus, err := udsm.NewClusterStore(w.Name, nodes, udsm.ClusterOptions{
			Replication: 2, ReadQuorum: 2, WriteQuorum: 2, Seed: seed,
		})
		if err != nil {
			return d, err
		}
		d.clus, d.base = clus, clus
	default:
		return d, fmt.Errorf("workload %s: unknown store %q", w.Name, w.Store)
	}
	return d, nil
}

// stack builds udsm → dscl → resilient over base and registers it.
func (d *deployment) stack(base kv.Store, tr *tracer) error {
	s := kv.Stack(base, probeLayer(tr, baseLayers[d.spec.Store]))
	if tr != nil && d.sql != nil {
		d.wal = &walMeter{path: filepath.Join(d.dir, "wal.log")}
		s.(*probe).afterPut = d.wal.sample
	}
	d.res = resilient.New(s, resilient.Options{Seed: d.seed})
	opts := []dscl.Option{dscl.WithWritePolicy(dscl.WriteThrough)}
	for i, t := range transformsFor(d.seed) {
		opts = append(opts, dscl.WithTransform(probeTransform(t, tr, []layer{layerGzip, layerAES}[i])))
	}
	if d.spec.CacheEntries > 0 {
		d.cache = dscl.NewInProcessCache(dscl.InProcessOptions{MaxEntries: d.spec.CacheEntries})
		var c dscl.Cache = d.cache
		if tr != nil {
			c = cacheProbe{inner: d.cache, t: tr}
		}
		opts = append(opts, dscl.WithCache(c))
	}
	d.client = dscl.New(kv.Stack(d.res, probeLayer(tr, layerResilient)), opts...)
	d.mgr = udsm.New(udsm.Options{})
	top, err := d.mgr.Register(kv.Stack(d.client, probeLayer(tr, layerDSCL)))
	if err != nil {
		_ = d.client.Close()
		return err
	}
	d.top = top
	return nil
}

// preload writes every key's first value (sequence 0) through the whole
// stack, in batches split between two loaders.
func (d *deployment) preload(ctx context.Context, vals *values) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for l := range errs {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for lo := l * preloadChunk; lo < len(vals.names); lo += 2 * preloadChunk {
				pairs := make(map[string][]byte, preloadChunk)
				for k := lo; k < min(lo+preloadChunk, len(vals.names)); k++ {
					pairs[vals.names[k]] = vals.make(k, 0)
				}
				if err := d.top.PutMulti(ctx, pairs); err != nil {
					errs[l] = fmt.Errorf("preload: %w", err)
					return
				}
			}
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// close stops everything the deployment started. The manager closes the
// stack down to the base store, and the cluster its nodes.
func (d *deployment) close() {
	switch {
	case d.mgr != nil:
		_ = d.mgr.Close()
	case d.base != nil:
		_ = d.base.Close()
	default: // set-up failed before the base store was complete
		for _, s := range d.raw {
			_ = s.Close()
		}
	}
	d.mgr, d.clus, d.base, d.sql, d.raw = nil, nil, nil, nil, nil
	for _, stop := range d.servers {
		_ = stop()
	}
	d.servers = nil
}

// storedBytes sums the raw bytes the base stores hold for keys, read
// beneath every layer.
func (d *deployment) storedBytes(ctx context.Context, keys []string) (int64, error) {
	var total int64
	for _, s := range d.raw {
		got, err := readEach(ctx, s, keys)
		if err != nil {
			return 0, fmt.Errorf("reading raw values: %w", err)
		}
		for _, v := range got {
			total += int64(len(v))
		}
	}
	return total, nil
}

// diskBytes is the size of the minisql database files.
func (d *deployment) diskBytes() int64 {
	var total int64
	for _, f := range []string{"data.db", "wal.log"} {
		if st, err := os.Stat(filepath.Join(d.dir, f)); err == nil {
			total += st.Size()
		}
	}
	return total
}

// readBack reads every key through a fresh, cache-less DSCL client over
// store, so the check sees what the store holds rather than what a cache
// remembers.
func readBack(ctx context.Context, store kv.Store, transforms []dscl.Transform, keys []string) (map[string][]byte, error) {
	var opts []dscl.Option
	for _, t := range transforms {
		opts = append(opts, dscl.WithTransform(t))
	}
	got, err := readEach(ctx, dscl.New(store, opts...), keys)
	if err != nil {
		return nil, fmt.Errorf("reading back: %w", err)
	}
	return got, nil
}

// readEach gets keys one by one from two readers; absent keys are left
// out. (minisql answers a multi-key read with a table scan, so single-key
// reads are the fast path on every store.)
func readEach(ctx context.Context, s kv.Store, keys []string) (map[string][]byte, error) {
	const readers = 2
	vals := make([][]byte, len(keys))
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(keys); i += readers {
				v, err := s.Get(ctx, keys[i])
				if err != nil && !kv.IsNotFound(err) {
					errs[r] = err
					return
				}
				vals[i] = v
			}
		}(r)
	}
	wg.Wait()
	out := make(map[string][]byte, len(keys))
	for i, v := range vals {
		if v != nil {
			out[keys[i]] = v
		}
	}
	return out, errors.Join(errs...)
}

// reopenSQL closes the deployment and reopens its database from disk, for
// the durability check.
func (d *deployment) reopenSQL() (*udsm.SQLStore, error) {
	d.close()
	return udsm.OpenSQLStore(d.spec.Name, udsm.SQLStoreOptions{Dir: d.dir, CachePages: d.spec.CachePages})
}

// walMeter totals the bytes appended to the minisql WAL. The WAL file is
// truncated at each checkpoint, which runs inside a commit before it is
// acknowledged; sampling its size after every acknowledged write therefore
// misses only the last group before each checkpoint.
type walMeter struct {
	path  string
	mu    sync.Mutex
	last  int64
	total int64
}

func (m *walMeter) size() int64 {
	st, err := os.Stat(m.path)
	if err != nil {
		return 0
	}
	return st.Size()
}

func (m *walMeter) sample() {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.size()
	if n < m.last {
		m.last = 0 // checkpointed
	}
	m.total += n - m.last
	m.last = n
}

// start begins a measurement from the WAL's current size.
func (m *walMeter) start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.last, m.total = m.size(), 0
}

// appended returns the bytes counted since start.
func (m *walMeter) appended() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}
