package pack

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"sync"
	"testing"

	"edsc/workload"
)

// stdlibCodec is the encoder CompressTo used before the in-package one: a
// pooled compress/gzip writer appending into a reused buffer. Tests and
// benchmarks keep it as the reference for output size and speed.
type stdlibCodec struct {
	level   int
	writers sync.Pool
}

func (s *stdlibCodec) compress(dst, value []byte) []byte {
	buf := bytes.NewBuffer(dst)
	zw, _ := s.writers.Get().(*gzip.Writer)
	if zw == nil {
		var err error
		if zw, err = gzip.NewWriterLevel(buf, s.level); err != nil {
			panic(err)
		}
	} else {
		zw.Reset(buf)
	}
	zw.Write(value)
	zw.Close()
	s.writers.Put(zw)
	return buf.Bytes()
}

var benchCompressSizes = []int{256, 1 << 10, 4 << 10, 64 << 10, 1 << 20}

// BenchmarkCompressTo compares CompressTo with the pooled compress/gzip
// writer it replaced, at level 6 on half-compressible values (the DSCL
// workloads' SyntheticSource{Compressibility: 0.5}).
func BenchmarkCompressTo(b *testing.B) {
	for _, size := range benchCompressSizes {
		value := workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(size)
		b.Run(fmt.Sprintf("pack/%d", size), func(b *testing.B) {
			c := New(WithSkipThreshold(0))
			var dst []byte
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := c.CompressTo(dst[:0], value)
				if err != nil {
					b.Fatal(err)
				}
				dst = out
			}
			b.ReportMetric(float64(len(dst)-1)/float64(size), "ratio")
		})
		b.Run(fmt.Sprintf("stdlib/%d", size), func(b *testing.B) {
			s := &stdlibCodec{level: gzip.DefaultCompression}
			var dst []byte
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = s.compress(dst[:0], value)
			}
			b.ReportMetric(float64(len(dst))/float64(size), "ratio")
		})
	}
}
