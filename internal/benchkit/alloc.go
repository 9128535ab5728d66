// Allocation-profile experiment: ns/op, B/op and allocs/op of the
// in-process hot paths (transform pipeline, cache hit, RESP echo, delta),
// measured with testing.Benchmark. The gate is allocs/op against the
// committed baseline; the zero-allocation guard tests pin the same paths.
package benchkit

import (
	"bytes"
	"testing"

	"edsc/dscl"
	"edsc/internal/cache"
	"edsc/internal/delta"
	"edsc/internal/pack"
	"edsc/internal/resp"
	"edsc/internal/secure"
)

// runAlloc measures every hot path with testing.Benchmark at a 4 KiB
// payload, the mid-range object size of the paper's evaluation. Only
// allocs/op is gated: latency varies too much across machines to gate on,
// allocation counts do not.
func runAlloc(bool) (*Report, error) {
	const payload = 4 << 10
	value := bytes.Repeat([]byte("abcdefgh"), payload/8)
	rep := &Report{Experiment: "alloc", Params: map[string]int{"payload_bytes": payload}}

	add := func(name string, guarded bool, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rep.Cells = append(rep.Cells, Cell{
			Name:        name,
			Guarded:     guarded,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
	}
	// appendPath benches an append-style leg that reuses its destination.
	appendPath := func(name string, fn func(dst []byte) ([]byte, error)) {
		add(name, true, func(b *testing.B) {
			var out []byte
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = fn(out[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Transform pipeline round trip, legacy (slice-returning, per-stage
	// fresh output) vs append (pooled intermediates, reused destinations).
	pc := pack.New()
	sc := secure.NewCipherFromPassphrase("bench")
	add("transform_roundtrip_legacy", false, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			comp, _ := pc.Compress(value)
			env, _ := sc.Seal(comp)
			ct, err := sc.Open(env)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := pc.Decompress(ct); err != nil {
				b.Fatal(err)
			}
		}
	})
	at := dscl.Chain(
		dscl.Compression(dscl.CompressionOptions{}),
		dscl.EncryptionFromPassphrase("bench"),
	).(dscl.AppendTransform)
	add("transform_roundtrip_append", true, func(b *testing.B) {
		var enc, dec []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if enc, err = at.EncodeTo(enc[:0], value); err != nil {
				b.Fatal(err)
			}
			if dec, err = at.DecodeTo(dec[:0], enc); err != nil {
				b.Fatal(err)
			}
		}
	})

	// In-process cache hit: the paper's headline free operation.
	c := cache.New(cache.Config{})
	c.Put("hot", value)
	add("cache_hit", true, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get("hot"); !ok {
				b.Fatal("miss")
			}
		}
	})

	// RESP echo round trip through the reusing reader (the server's mode).
	add("resp_echo_reuse", true, func(b *testing.B) {
		var buf bytes.Buffer
		w := resp.NewWriter(&buf)
		r := resp.NewReader(&buf).ReuseBulk(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := w.Write(resp.Bulk(value)); err != nil {
				b.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				b.Fatal(err)
			}
			if _, err := r.Read(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Individual append-style transform legs.
	env0, err := sc.Seal(value)
	if err != nil {
		return nil, err
	}
	comp0, err := pc.Compress(value)
	if err != nil {
		return nil, err
	}
	appendPath("seal_to", func(dst []byte) ([]byte, error) { return sc.SealTo(dst, value) })
	appendPath("open_to", func(dst []byte) ([]byte, error) { return sc.OpenTo(dst, env0) })
	appendPath("compress_to", func(dst []byte) ([]byte, error) { return pc.CompressTo(dst, value) })
	appendPath("decompress_to", func(dst []byte) ([]byte, error) { return pc.DecompressTo(dst, comp0) })

	// Delta encode/apply with the pooled window index.
	enc := delta.NewEncoder(delta.DefaultWindowSize)
	newV := append(append([]byte{}, value...), []byte("tail-change")...)
	d0 := enc.Encode(value, newV)
	appendPath("delta_encode_to", func(dst []byte) ([]byte, error) { return enc.EncodeTo(dst, value, newV), nil })
	appendPath("delta_apply_to", func(dst []byte) ([]byte, error) { return delta.ApplyTo(dst, value, d0) })
	return rep, nil
}
