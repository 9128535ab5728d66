package pack

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"edsc/workload"
)

// allLevels is every level WithLevel accepts: HuffmanOnly, Default, 0-9.
var allLevels = []int{-2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

type corpusInput struct {
	name string
	data []byte
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// conformanceCorpus is the encoder's edge cases plus realistic data: tiny
// sizes around the 4-byte hash and 3-byte minimum match, runs past the
// 258-byte maximum match, matches at the 32 KiB window edge, token counts
// at the 16 K-token block boundary, a large all-zero value, random bytes,
// the DSCL workloads' synthetic values and this repository's own sources.
func conformanceCorpus(t testing.TB) []corpusInput {
	t.Helper()
	var c []corpusInput
	add := func(name string, data []byte) { c = append(c, corpusInput{name, data}) }

	text := bytes.Repeat([]byte("all work and no play "), 20)
	for _, n := range []int{0, 1, 3, 4, 5, 257, 258, 259} {
		add(fmt.Sprintf("size%d/random", n), randomBytes(n, int64(n)))
		add(fmt.Sprintf("size%d/text", n), text[:n])
		add(fmt.Sprintf("size%d/same", n), bytes.Repeat([]byte{'z'}, n))
	}

	add("run/a1000", bytes.Repeat([]byte("a"), 1000))
	add("run/ab700", bytes.Repeat([]byte("ab"), 700))
	add("run/abc-then-random", append(bytes.Repeat([]byte("abc"), 400), randomBytes(300, 7)...))
	add("run/random-run-random", append(append(randomBytes(100, 8), make([]byte, 2000)...), randomBytes(100, 9)...))

	// A 300-byte block repeated exactly d bytes later: d = 32768 is the
	// farthest legal distance, 32769 must not be matched.
	for _, d := range []int{windowSize - 1, windowSize, windowSize + 1} {
		b := randomBytes(d+300, int64(d))
		copy(b[d:], b[:300])
		add(fmt.Sprintf("window/distance%d", d), b)
		add(fmt.Sprintf("window/synthetic%d", d), workload.SyntheticSource{Compressibility: 0.5, Seed: 3}.Data(d))
	}

	// Random bytes parse to one literal token each, so these end a block
	// on, just before and just after the 16 K-token boundary, with and
	// without a match as the boundary token.
	for _, n := range []int{maxBlockTokens - 1, maxBlockTokens, maxBlockTokens + 1} {
		add(fmt.Sprintf("block/literals%d", n), randomBytes(n, int64(n)))
		b := randomBytes(n+600, int64(n))
		copy(b[n-1:], b[:601])
		add(fmt.Sprintf("block/match-at%d", n), b)
	}
	add("block/literals-3x", randomBytes(3*maxBlockTokens+5, 11))

	add("zeros/1MiB", make([]byte, 1<<20))
	add("random/4KiB", randomBytes(4<<10, 12))
	add("random/64KiB", randomBytes(64<<10, 13))
	for _, comp := range []float64{0, 0.5, 1} {
		src := workload.SyntheticSource{Compressibility: comp, Seed: 1}
		for _, n := range []int{256, 1 << 10, 4 << 10, 64 << 10} {
			add(fmt.Sprintf("synthetic%.1f/%d", comp, n), src.Data(n))
		}
	}
	add("synthetic0.5/1MiB", workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(1<<20))

	var all []byte
	for _, pattern := range []string{"../../*.md", "*.go"} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			add("file/"+filepath.Base(f), b)
			all = append(all, b...)
		}
	}
	if len(all) < 64<<10 {
		t.Fatalf("repository sources total %d bytes; the corpus expects the .md and .go files", len(all))
	}
	add("file/all", all)
	return c
}

// gunzipMember decodes exactly one gzip member with the standard library
// and fails unless it spans all of data.
func gunzipMember(t testing.TB, data []byte) []byte {
	t.Helper()
	br := bytes.NewReader(data)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	zr.Multistream(false)
	got, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("inflate: %v", err)
	}
	if err := zr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if br.Len() != 0 {
		t.Fatalf("member ends %d bytes before the frame does", br.Len())
	}
	return got
}

func stdlibGzip(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncoderConformance: every corpus input at every level decodes
// byte-exact through compress/gzip as one member filling the whole frame,
// carries compress/gzip's header bytes, and level 6 stays within 0.5% of
// compress/gzip's total output size.
func TestEncoderConformance(t *testing.T) {
	corpus := conformanceCorpus(t)
	if testing.Short() {
		corpus = corpus[:len(corpus)/2]
	}
	for _, level := range allLevels {
		var ours, theirs int
		for _, in := range corpus {
			out := appendGzip(nil, in.data, level)
			if got := gunzipMember(t, out); !bytes.Equal(got, in.data) {
				t.Fatalf("level %d, %s: round trip differs (%d bytes in, %d out)", level, in.name, len(in.data), len(got))
			}
			ref := stdlibGzip(t, in.data, level)
			if !bytes.Equal(out[:10], ref[:10]) {
				t.Fatalf("level %d, %s: header % x, compress/gzip writes % x", level, in.name, out[:10], ref[:10])
			}
			ours += len(out)
			theirs += len(ref)
		}
		t.Logf("level %2d: %d bytes, compress/gzip %d (%.4fx)", level, ours, theirs, float64(ours)/float64(theirs))
		if level == 6 && float64(ours) > 1.005*float64(theirs) {
			t.Fatalf("level 6 output %d bytes, over 1.005x compress/gzip's %d", ours, theirs)
		}
	}
}

// TestEncoderSegments: values longer than one LZ77 segment still encode
// as a single member.
func TestEncoderSegments(t *testing.T) {
	in := append(bytes.Repeat([]byte("segment boundary "), 150), randomBytes(1500, 5)...)
	for _, level := range allLevels {
		if got := gunzipMember(t, new(encoder).encode(nil, in, level, 1000)); !bytes.Equal(got, in) {
			t.Fatalf("level %d: round trip differs", level)
		}
	}
}

func TestCompressRejectsBadLevel(t *testing.T) {
	for _, level := range []int{-3, 10, 100} {
		if _, err := New(WithLevel(level)).Compress([]byte("value")); err == nil {
			t.Fatalf("level %d accepted", level)
		}
		dst := []byte("keep")
		if out, err := New(WithLevel(level)).CompressTo(dst, nil); err == nil || string(out) != "keep" {
			t.Fatalf("level %d: CompressTo = %q, %v; want dst back and an error", level, out, err)
		}
	}
	for _, level := range allLevels {
		if _, err := New(WithLevel(level)).Compress([]byte("value")); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
	}
}

// TestDecodesStdlibFrames: frames written by the compress/gzip writer the
// codec used before its own encoder still decode.
func TestDecodesStdlibFrames(t *testing.T) {
	c := New()
	for _, in := range conformanceCorpus(t)[:40] {
		for _, level := range []int{-2, 1, 6, 9} {
			frame := append([]byte{tagGzip}, stdlibGzip(t, in.data, level)...)
			got, err := c.Decompress(frame)
			if err != nil || !bytes.Equal(got, in.data) {
				t.Fatalf("%s level %d: %v", in.name, level, err)
			}
		}
	}
}

// FuzzCompress: any bytes at any level round-trip byte-exact through the
// standard library's decoder, and through the codec's own Decompress.
func FuzzCompress(f *testing.F) {
	// The level byte maps onto -2..9 as (byte mod 12) - 2.
	f.Add([]byte{}, int8(8))
	f.Add([]byte("a"), int8(0))
	f.Add(bytes.Repeat([]byte("abcd"), 100), int8(3))
	f.Add(workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(1000), int8(11))
	f.Fuzz(func(t *testing.T, data []byte, level int8) {
		lvl := (int(level)%12+12)%12 - 2
		if got := gunzipMember(t, appendGzip(nil, data, lvl)); !bytes.Equal(got, data) {
			t.Fatalf("level %d: round trip differs", lvl)
		}
		c := New(WithLevel(lvl), WithSkipThreshold(0))
		frame, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := c.Decompress(frame); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d: codec round trip: %v", lvl, err)
		}
	})
}
