// Package pack implements the DSCL's client-side compression: gzip (as in
// the paper, §V Fig. 21) with a small frame header so readers can tell
// compressed values from raw ones.
//
// Compression is skipped when it does not pay: if gzip fails to shrink the
// value below a configurable fraction of its original size, the value is
// framed as "stored" instead. Already-compressed or encrypted data therefore
// costs one header byte rather than a futile deflate pass — the CPU/space
// trade-off §III closes with.
//
// Frame layout: tag(1) | payload. Tag 0x00 = stored raw, 0x01 = gzip.
//
// Encoding uses the package's own DEFLATE encoder (deflate.go), whose set-up
// cost scales with the value rather than with compress/flate's 32 KiB
// window; decoding uses compress/gzip. Frames from either encoder decode the
// same way.
//
// Hot-path note: CompressTo and DecompressTo are append-style — they write
// into a caller-supplied destination and recycle encoder and gzip reader
// state through pools. Steady-state compression allocates nothing beyond what
// the destination needs to grow. Decompression allocates nothing for values
// whose Huffman codes stay within 9 bits; longer codes make compress/flate's
// inflater build link tables (a few small allocations per value, e.g. 2 for a
// 4 KiB half-random value).
package pack

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sync"

	"edsc/internal/bufpool"
)

const (
	tagStored = 0x00
	tagGzip   = 0x01
)

// ErrNotFramed reports data that does not begin with a pack frame tag.
var ErrNotFramed = errors.New("pack: data is not a pack frame")

// Codec compresses and decompresses byte slices. It is safe for concurrent
// use. The zero value is not usable; call New.
type Codec struct {
	level int
	// minRatio is the largest acceptable compressed/original ratio; above
	// it the value is stored raw.
	minRatio float64

	readers sync.Pool // of *gzReader
}

// gzReader bundles a gzip.Reader with the bytes.Reader it decodes from, so a
// pooled decompression resurrects both without allocating either.
type gzReader struct {
	br bytes.Reader
	zr *gzip.Reader
}

// Option configures a Codec.
type Option func(*Codec)

// WithLevel sets the gzip compression level, numbered as in compress/gzip:
// HuffmanOnly (-2), DefaultCompression (-1), or 0 (store) to 9 (best).
// Compression fails for any other level.
func WithLevel(level int) Option { return func(c *Codec) { c.level = level } }

// WithSkipThreshold sets the compressed/original ratio above which values are
// stored uncompressed. 1.0 stores raw only when gzip expands the data;
// 0 disables the fallback entirely (always gzip).
func WithSkipThreshold(ratio float64) Option { return func(c *Codec) { c.minRatio = ratio } }

// New builds a Codec. Defaults: DefaultCompression (level 6), skip threshold
// 0.98.
func New(opts ...Option) *Codec {
	c := &Codec{level: levelDefault, minRatio: 0.98}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Compress frames value, gzipping it when that shrinks it enough.
func (c *Codec) Compress(value []byte) ([]byte, error) {
	return c.CompressTo(nil, value)
}

// CompressTo appends a frame for value to dst and returns the extended
// slice. dst may be nil or a reused scratch buffer; it must not overlap
// value. Only the returned slice is valid afterwards.
func (c *Codec) CompressTo(dst, value []byte) ([]byte, error) {
	if err := checkLevel(c.level); err != nil {
		return dst, err
	}
	off := len(dst)
	out := appendGzip(append(dst, tagGzip), value, c.level)
	if c.minRatio > 0 && len(value) > 0 {
		ratio := float64(len(out)-off-1) / float64(len(value))
		if ratio > c.minRatio {
			// Store raw instead: rewrite the frame over the same region.
			// The gzip bytes past off are dead; out already has the
			// capacity when gzip expanded the data.
			out = append(out[:off], tagStored)
			out = append(out, value...)
			return out, nil
		}
	}
	return out, nil
}

// Decompress unframes data produced by Compress.
func (c *Codec) Decompress(data []byte) ([]byte, error) {
	return c.DecompressTo(nil, data)
}

// DecompressTo appends the unframed payload of data to dst and returns the
// extended slice. dst must not overlap data. On error dst is returned
// unmodified (possibly reallocated for partially-written gzip output).
func (c *Codec) DecompressTo(dst, data []byte) ([]byte, error) {
	if len(data) == 0 {
		return dst, ErrNotFramed
	}
	switch data[0] {
	case tagStored:
		return append(dst, data[1:]...), nil
	case tagGzip:
		gz, _ := c.readers.Get().(*gzReader)
		if gz == nil {
			gz = &gzReader{}
		}
		gz.br.Reset(data[1:])
		if gz.zr == nil {
			zr, err := gzip.NewReader(&gz.br)
			if err != nil {
				c.readers.Put(gz)
				return dst, fmt.Errorf("pack: opening stream: %w", err)
			}
			gz.zr = zr
		} else if err := gz.zr.Reset(&gz.br); err != nil {
			c.readers.Put(gz)
			return dst, fmt.Errorf("pack: opening stream: %w", err)
		}
		out, err := readAppend(gz.zr, dst)
		if err != nil {
			c.readers.Put(gz)
			return dst, fmt.Errorf("pack: decompressing: %w", err)
		}
		if err := gz.zr.Close(); err != nil {
			c.readers.Put(gz)
			return dst, fmt.Errorf("pack: closing stream: %w", err)
		}
		c.readers.Put(gz)
		return out, nil
	default:
		return dst, ErrNotFramed
	}
}

// readAppend drains r appending onto b, growing the spare capacity
// geometrically instead of allocating per read the way io.ReadAll does.
func readAppend(r io.Reader, b []byte) ([]byte, error) {
	for {
		if cap(b)-len(b) < 512 {
			n := cap(b)
			if n < 512 {
				n = 512
			}
			b = bufpool.Grow(b, n)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// IsFramed reports whether data begins with a pack frame tag. (One-byte tags
// are ambiguous in principle; in the DSCL pipeline compression order is fixed
// so this is only used for diagnostics.)
func IsFramed(data []byte) bool {
	return len(data) > 0 && (data[0] == tagStored || data[0] == tagGzip)
}

// Ratio is a convenience that reports len(compressed)/len(original) for
// instrumentation. Returns 1 for empty input.
func Ratio(original, compressed []byte) float64 {
	if len(original) == 0 {
		return 1
	}
	return float64(len(compressed)) / float64(len(original))
}
