package main

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
	"unsafe"

	"edsc/dscl"
	"edsc/kv"
)

// layer names one probed boundary of the stack.
type layer uint8

const (
	layerUDSM layer = iota
	layerDSCL
	layerCache
	layerGzip
	layerAES
	layerResilient
	layerCluster
	layerCloudsim
	layerMiniredis
	layerMinisql
	numLayers
)

var layerNames = [numLayers]string{
	"udsm", "dscl", "dscl.cache", "dscl.transform.gzip", "dscl.transform.aes128",
	"resilient", "cluster", "cloudsim", "miniredis", "minisql",
}

// opKind classifies a probed call.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opEncode
	opDecode
	opOther
	numOps
)

// span is one probed call: which layer, what kind of call, when, and the
// span that caused it (slot+1 in the tracer's buffer; 0 for none).
type span struct {
	parent     int32
	layer      layer
	op         opKind
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans into a fixed buffer while on. A span's slot is taken
// when it begins, so a child can name its parent before the parent ends.
// Recording is switched on and off only while no operation is in flight,
// and the buffer is read only then.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	next    atomic.Int64
	spans   []span
	workers []traceWorker
}

// traceWorker is what a transform probe needs to find its caller: a
// Transform gets no context, so the DSCL probe publishes the client's open
// span, and each stage is matched to its client by the buffer it is handed
// (the value being written, the bytes just read from the store, or the
// previous stage's output). The client owns that buffer while it waits, so
// no other client can be handed the same one.
type traceWorker struct {
	dscl   atomic.Int32 // slot+1 of the client's open DSCL span
	expect atomic.Pointer[byte]
}

type spanKey struct{}
type workerKey struct{}

func newTracer(capacity, clients int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity), workers: make([]traceWorker, clients)}
}

// withWorker tags ctx with the client that issues the operations under it.
func withWorker(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, workerKey{}, id)
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// nearlyFull reports that the buffer is three quarters used; the clients
// then end the traced block, leaving room for operations in flight.
func (t *tracer) nearlyFull() bool { return t.next.Load() >= int64(len(t.spans))*3/4 }

// recorded returns the spans of the finished block and starts a new one.
func (t *tracer) recorded() []span {
	n := t.next.Swap(0)
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// overflowed reports whether spans were lost since the last recorded call.
func (t *tracer) overflowed() bool { return t.next.Load() > int64(len(t.spans)) }

func (t *tracer) alloc(parent int32, l layer, op opKind) int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{parent: parent, layer: l, op: op, start: t.now()}
	return int32(i)
}

// begin opens a span caused by the span in ctx and returns ctx carrying
// the new one. Without recording it returns ctx and slot -1.
func (t *tracer) begin(ctx context.Context, l layer, op opKind) (context.Context, int32) {
	if !t.recording() {
		return ctx, -1
	}
	parent, _ := ctx.Value(spanKey{}).(int32)
	slot := t.alloc(parent, l, op)
	if slot < 0 {
		return ctx, -1
	}
	return context.WithValue(ctx, spanKey{}, slot+1), slot
}

func (t *tracer) end(slot int32) {
	if slot >= 0 {
		t.spans[slot].end = t.now()
	}
}

func (t *tracer) worker(ctx context.Context) *traceWorker {
	if id, ok := ctx.Value(workerKey{}).(int); ok && id < len(t.workers) {
		return &t.workers[id]
	}
	return nil
}

// claim finds the client whose next transform stage is handed in, and
// returns it with its open DSCL span.
func (t *tracer) claim(in []byte) (*traceWorker, int32) {
	p := unsafe.SliceData(in)
	if p == nil {
		return nil, 0
	}
	for i := range t.workers {
		if w := &t.workers[i]; w.expect.Load() == p {
			return w, w.dscl.Load()
		}
	}
	return nil, 0
}

// --- kv.Store probe ---------------------------------------------------------

var errNoCapability = errors.New("e2ebench: probed store lacks the capability")

// probe is a kv.Layer that records a span around every call into the store
// it wraps. It is capability-transparent: it claims in the kv.As walk
// exactly the capabilities the stack below it provides and forwards them
// to the provider that walk would have found, so no caller can reach past
// it (the DSCL miss path's kv.As[kv.Versioned] included).
type probe struct {
	inner kv.Store
	t     *tracer
	l     layer
	// afterPut, when set, runs after each recorded write (the minisql WAL
	// meter).
	afterPut func()
}

var (
	_ kv.Store          = (*probe)(nil)
	_ kv.Wrapper        = (*probe)(nil)
	_ kv.Interceptor    = (*probe)(nil)
	_ kv.Versioned      = (*probe)(nil)
	_ kv.VersionedBatch = (*probe)(nil)
	_ kv.CompareAndPut  = (*probe)(nil)
	_ kv.Expiring       = (*probe)(nil)
	_ kv.SQL            = (*probe)(nil)
)

func newProbe(inner kv.Store, t *tracer, l layer) *probe { return &probe{inner: inner, t: t, l: l} }

// probeLayer returns the kv.Layer installing a probe, or nil (a layer
// kv.Stack skips) when t is nil.
func probeLayer(t *tracer, l layer) kv.Layer {
	if t == nil {
		return nil
	}
	return func(s kv.Store) kv.Store { return newProbe(s, t, l) }
}

// Unwrap implements kv.Wrapper.
func (p *probe) Unwrap() kv.Store { return p.inner }

// Intercepts implements kv.Interceptor: claim what the stack below provides.
func (p *probe) Intercepts(capability any) bool {
	var ok bool
	switch capability.(type) {
	case *kv.Versioned:
		_, ok = kv.As[kv.Versioned](p.inner)
	case *kv.Batch:
		_, ok = kv.As[kv.Batch](p.inner)
	case *kv.VersionedBatch:
		_, ok = kv.As[kv.VersionedBatch](p.inner)
	case *kv.CompareAndPut:
		_, ok = kv.As[kv.CompareAndPut](p.inner)
	case *kv.Expiring:
		_, ok = kv.As[kv.Expiring](p.inner)
	case *kv.SQL:
		_, ok = kv.As[kv.SQL](p.inner)
	default:
		ok = true
	}
	return ok
}

func (p *probe) enter(ctx context.Context, op opKind) (context.Context, int32) {
	ctx, slot := p.t.begin(ctx, p.l, op)
	if slot >= 0 && p.l == layerDSCL {
		if w := p.t.worker(ctx); w != nil {
			w.dscl.Store(slot + 1)
		}
	}
	return ctx, slot
}

func (p *probe) exit(ctx context.Context, slot int32) {
	if slot < 0 {
		return
	}
	p.t.end(slot)
	if p.l == layerDSCL {
		if w := p.t.worker(ctx); w != nil {
			w.dscl.Store(0)
			w.expect.Store(nil)
		}
	}
	if p.afterPut != nil {
		if op := p.t.spans[slot].op; op == opPut {
			p.afterPut()
		}
	}
}

// handOff marks b as the next transform stage's input: a value entering
// the DSCL for encoding, or bytes read by the DSCL for decoding.
func (p *probe) handOff(ctx context.Context, slot int32, b []byte) {
	if slot < 0 {
		return
	}
	if w := p.t.worker(ctx); w != nil {
		w.expect.Store(unsafe.SliceData(b))
	}
}

// put opens a write span. At the DSCL boundary the value goes on to be
// encoded.
func (p *probe) put(ctx context.Context, value []byte) (context.Context, int32) {
	ctx, slot := p.enter(ctx, opPut)
	if p.l == layerDSCL {
		p.handOff(ctx, slot, value)
	}
	return ctx, slot
}

// got closes a read span. Beneath the DSCL the bytes read go on to be
// decoded.
func (p *probe) got(ctx context.Context, slot int32, value []byte) {
	if p.l == layerResilient {
		p.handOff(ctx, slot, value)
	}
	p.exit(ctx, slot)
}

// Name implements kv.Store.
func (p *probe) Name() string { return p.inner.Name() }

// Get implements kv.Store.
func (p *probe) Get(ctx context.Context, key string) ([]byte, error) {
	ctx, slot := p.enter(ctx, opGet)
	v, err := p.inner.Get(ctx, key)
	p.got(ctx, slot, v)
	return v, err
}

// Put implements kv.Store.
func (p *probe) Put(ctx context.Context, key string, value []byte) error {
	ctx, slot := p.put(ctx, value)
	err := p.inner.Put(ctx, key, value)
	p.exit(ctx, slot)
	return err
}

// Delete implements kv.Store.
func (p *probe) Delete(ctx context.Context, key string) error {
	ctx, slot := p.enter(ctx, opOther)
	err := p.inner.Delete(ctx, key)
	p.exit(ctx, slot)
	return err
}

// Contains implements kv.Store.
func (p *probe) Contains(ctx context.Context, key string) (bool, error) {
	ctx, slot := p.enter(ctx, opOther)
	ok, err := p.inner.Contains(ctx, key)
	p.exit(ctx, slot)
	return ok, err
}

// Keys implements kv.Store.
func (p *probe) Keys(ctx context.Context) ([]string, error) {
	ctx, slot := p.enter(ctx, opOther)
	ks, err := p.inner.Keys(ctx)
	p.exit(ctx, slot)
	return ks, err
}

// Len implements kv.Store.
func (p *probe) Len(ctx context.Context) (int, error) {
	ctx, slot := p.enter(ctx, opOther)
	n, err := p.inner.Len(ctx)
	p.exit(ctx, slot)
	return n, err
}

// Clear implements kv.Store.
func (p *probe) Clear(ctx context.Context) error {
	ctx, slot := p.enter(ctx, opOther)
	err := p.inner.Clear(ctx)
	p.exit(ctx, slot)
	return err
}

// Close implements kv.Store.
func (p *probe) Close() error { return p.inner.Close() }

// GetVersioned implements kv.Versioned.
func (p *probe) GetVersioned(ctx context.Context, key string) ([]byte, kv.Version, error) {
	vs, ok := kv.As[kv.Versioned](p.inner)
	if !ok {
		return nil, kv.NoVersion, errNoCapability
	}
	ctx, slot := p.enter(ctx, opGet)
	v, ver, err := vs.GetVersioned(ctx, key)
	p.got(ctx, slot, v)
	return v, ver, err
}

// GetIfModified implements kv.Versioned.
func (p *probe) GetIfModified(ctx context.Context, key string, since kv.Version) ([]byte, kv.Version, bool, error) {
	vs, ok := kv.As[kv.Versioned](p.inner)
	if !ok {
		return nil, kv.NoVersion, false, errNoCapability
	}
	ctx, slot := p.enter(ctx, opGet)
	v, ver, modified, err := vs.GetIfModified(ctx, key, since)
	p.got(ctx, slot, v)
	return v, ver, modified, err
}

// PutVersioned implements kv.Versioned.
func (p *probe) PutVersioned(ctx context.Context, key string, value []byte) (kv.Version, error) {
	vs, ok := kv.As[kv.Versioned](p.inner)
	if !ok {
		return kv.NoVersion, errNoCapability
	}
	ctx, slot := p.put(ctx, value)
	ver, err := vs.PutVersioned(ctx, key, value)
	p.exit(ctx, slot)
	return ver, err
}

// PutIfVersion implements kv.CompareAndPut.
func (p *probe) PutIfVersion(ctx context.Context, key string, value []byte, since kv.Version) (kv.Version, error) {
	cs, ok := kv.As[kv.CompareAndPut](p.inner)
	if !ok {
		return kv.NoVersion, errNoCapability
	}
	ctx, slot := p.put(ctx, value)
	ver, err := cs.PutIfVersion(ctx, key, value, since)
	p.exit(ctx, slot)
	return ver, err
}

// GetMulti implements kv.Batch.
func (p *probe) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	bs, ok := kv.As[kv.Batch](p.inner)
	if !ok {
		return nil, errNoCapability
	}
	ctx, slot := p.enter(ctx, opOther)
	out, err := bs.GetMulti(ctx, keys)
	p.exit(ctx, slot)
	return out, err
}

// PutMulti implements kv.Batch.
func (p *probe) PutMulti(ctx context.Context, pairs map[string][]byte) error {
	bs, ok := kv.As[kv.Batch](p.inner)
	if !ok {
		return errNoCapability
	}
	ctx, slot := p.enter(ctx, opOther)
	err := bs.PutMulti(ctx, pairs)
	p.exit(ctx, slot)
	return err
}

// GetMultiVersioned implements kv.VersionedBatch.
func (p *probe) GetMultiVersioned(ctx context.Context, keys []string) (map[string]kv.VersionedValue, error) {
	vb, ok := kv.As[kv.VersionedBatch](p.inner)
	if !ok {
		return nil, errNoCapability
	}
	ctx, slot := p.enter(ctx, opOther)
	out, err := vb.GetMultiVersioned(ctx, keys)
	p.exit(ctx, slot)
	return out, err
}

// PutTTL implements kv.Expiring.
func (p *probe) PutTTL(ctx context.Context, key string, value []byte, ttlNanos int64) error {
	es, ok := kv.As[kv.Expiring](p.inner)
	if !ok {
		return errNoCapability
	}
	ctx, slot := p.put(ctx, value)
	err := es.PutTTL(ctx, key, value, ttlNanos)
	p.exit(ctx, slot)
	return err
}

// TTL implements kv.Expiring.
func (p *probe) TTL(ctx context.Context, key string) (int64, error) {
	es, ok := kv.As[kv.Expiring](p.inner)
	if !ok {
		return 0, errNoCapability
	}
	ctx, slot := p.enter(ctx, opOther)
	ttl, err := es.TTL(ctx, key)
	p.exit(ctx, slot)
	return ttl, err
}

// Exec implements kv.SQL.
func (p *probe) Exec(ctx context.Context, query string) (int, error) {
	ss, ok := kv.As[kv.SQL](p.inner)
	if !ok {
		return 0, errNoCapability
	}
	ctx, slot := p.enter(ctx, opOther)
	n, err := ss.Exec(ctx, query)
	p.exit(ctx, slot)
	return n, err
}

// Query implements kv.SQL.
func (p *probe) Query(ctx context.Context, query string) (*kv.Rows, error) {
	ss, ok := kv.As[kv.SQL](p.inner)
	if !ok {
		return nil, errNoCapability
	}
	ctx, slot := p.enter(ctx, opOther)
	rows, err := ss.Query(ctx, query)
	p.exit(ctx, slot)
	return rows, err
}

// --- dscl.Cache probe -------------------------------------------------------

// cacheProbe records a span around every call into a DSCL cache.
type cacheProbe struct {
	inner dscl.Cache
	t     *tracer
}

var _ dscl.Cache = cacheProbe{}

func (c cacheProbe) Get(ctx context.Context, key string) (dscl.Entry, dscl.State, error) {
	ctx, slot := c.t.begin(ctx, layerCache, opGet)
	e, st, err := c.inner.Get(ctx, key)
	c.t.end(slot)
	return e, st, err
}

func (c cacheProbe) Put(ctx context.Context, key string, e dscl.Entry) error {
	ctx, slot := c.t.begin(ctx, layerCache, opPut)
	err := c.inner.Put(ctx, key, e)
	c.t.end(slot)
	return err
}

func (c cacheProbe) Delete(ctx context.Context, key string) (bool, error) {
	ctx, slot := c.t.begin(ctx, layerCache, opOther)
	ok, err := c.inner.Delete(ctx, key)
	c.t.end(slot)
	return ok, err
}

func (c cacheProbe) Touch(ctx context.Context, key string, expiresAt time.Time, version kv.Version) (bool, error) {
	ctx, slot := c.t.begin(ctx, layerCache, opOther)
	ok, err := c.inner.Touch(ctx, key, expiresAt, version)
	c.t.end(slot)
	return ok, err
}

func (c cacheProbe) Len(ctx context.Context) (int, error) { return c.inner.Len(ctx) }

func (c cacheProbe) Clear(ctx context.Context) error { return c.inner.Clear(ctx) }

// --- dscl.Transform probe ---------------------------------------------------

// transformProbe records a span around every stage call of one transform.
type transformProbe struct {
	inner dscl.Transform
	t     *tracer
	l     layer
}

// appendTransformProbe is transformProbe for a transform with the
// append-style fast path, which the probe keeps so the DSCL pipeline takes
// the same path with and without probes.
type appendTransformProbe struct{ transformProbe }

var _ dscl.AppendTransform = appendTransformProbe{}

// probeTransform wraps t, keeping dscl.AppendTransform when t has it.
func probeTransform(t dscl.Transform, tr *tracer, l layer) dscl.Transform {
	if tr == nil {
		return t
	}
	p := transformProbe{inner: t, t: tr, l: l}
	if _, ok := t.(dscl.AppendTransform); ok {
		return appendTransformProbe{p}
	}
	return p
}

// open starts a stage span, parented by the DSCL span of the client that
// handed in the stage's input.
func (p transformProbe) open(op opKind, in []byte) (*traceWorker, int32) {
	if !p.t.recording() {
		return nil, -1
	}
	w, parent := p.t.claim(in)
	return w, p.t.alloc(parent, p.l, op)
}

// close ends the stage span and hands its output on to the next stage.
func (p transformProbe) close(w *traceWorker, slot int32, out []byte, err error) {
	p.t.end(slot)
	if w != nil && err == nil {
		w.expect.Store(unsafe.SliceData(out))
	}
}

func (p transformProbe) Name() string { return p.inner.Name() }

func (p transformProbe) Encode(value []byte) ([]byte, error) {
	w, slot := p.open(opEncode, value)
	out, err := p.inner.Encode(value)
	p.close(w, slot, out, err)
	return out, err
}

func (p transformProbe) Decode(data []byte) ([]byte, error) {
	w, slot := p.open(opDecode, data)
	out, err := p.inner.Decode(data)
	p.close(w, slot, out, err)
	return out, err
}

func (p appendTransformProbe) EncodeTo(dst, value []byte) ([]byte, error) {
	w, slot := p.open(opEncode, value)
	out, err := p.inner.(dscl.AppendTransform).EncodeTo(dst, value)
	p.close(w, slot, out, err)
	return out, err
}

func (p appendTransformProbe) DecodeTo(dst, data []byte) ([]byte, error) {
	w, slot := p.open(opDecode, data)
	out, err := p.inner.(dscl.AppendTransform).DecodeTo(dst, data)
	p.close(w, slot, out, err)
	return out, err
}
