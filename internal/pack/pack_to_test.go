package pack

import (
	"bytes"
	"math/rand"
	"testing"

	"edsc/internal/raceflag"
	"edsc/workload"
)

func incompressible(t *testing.T, n int) []byte {
	t.Helper()
	b := make([]byte, n)
	rand.New(rand.NewSource(42)).Read(b)
	return b
}

// TestCompressToAppendSemantics pins the append contract for both frame
// kinds: the gzip path and the stored fallback.
func TestCompressToAppendSemantics(t *testing.T) {
	c := New()
	for _, tc := range []struct {
		name  string
		value []byte
	}{
		{"compressible", bytes.Repeat([]byte("abcdefgh"), 512)},
		{"incompressible", incompressible(t, 512)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, err := c.CompressTo([]byte("pfx:"), tc.value)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(out, []byte("pfx:")) {
				t.Fatalf("dst prefix clobbered: %q", out[:4])
			}
			back, err := c.DecompressTo([]byte("out:"), out[4:])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(back, []byte("out:")) || !bytes.Equal(back[4:], tc.value) {
				t.Fatal("append round trip corrupted payload")
			}
		})
	}
}

// TestDecompressToErrorLeavesDst: a bad frame must not leave partial output
// appended to the caller's buffer.
func TestDecompressToErrorLeavesDst(t *testing.T) {
	c := New()
	dst := []byte("keep")
	out, err := c.DecompressTo(dst, []byte{0xFF, 1, 2, 3})
	if err == nil {
		t.Fatal("garbage frame accepted")
	}
	if string(out) != "keep" {
		t.Fatalf("dst modified on error: %q", out)
	}
}

// TestAllocsGuard pins the compress/decompress round trip at zero
// steady-state allocations: encoder state, gzip reader and bytes.Reader are
// all pooled, and output goes into reused destination buffers.
func TestAllocsGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	c := New()
	value := bytes.Repeat([]byte("abcdefgh"), 512)
	var cBuf, dBuf []byte
	comp := func() {
		out, err := c.CompressTo(cBuf[:0], value)
		if err != nil {
			t.Fatal(err)
		}
		cBuf = out
	}
	comp() // warm the pools
	if allocs := testing.AllocsPerRun(200, comp); allocs > 0 {
		t.Fatalf("CompressTo allocated %.1f times per op, want 0", allocs)
	}
	dec := func() {
		out, err := c.DecompressTo(dBuf[:0], cBuf)
		if err != nil {
			t.Fatal(err)
		}
		dBuf = out
	}
	dec()
	if allocs := testing.AllocsPerRun(200, dec); allocs > 0 {
		t.Fatalf("DecompressTo allocated %.1f times per op, want 0", allocs)
	}
}

// TestCompressToAllocsRealistic extends the zero-allocation guard to
// values like the DSCL workloads': half-compressible, 256 B to 4 KiB.
func TestCompressToAllocsRealistic(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	c := New()
	for _, n := range []int{256, 1 << 10, 4 << 10} {
		value := workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(n)
		var buf []byte
		comp := func() {
			out, err := c.CompressTo(buf[:0], value)
			if err != nil {
				t.Fatal(err)
			}
			buf = out
		}
		comp()
		if allocs := testing.AllocsPerRun(200, comp); allocs > 0 {
			t.Fatalf("CompressTo(%d B) allocated %.1f times per op, want 0", n, allocs)
		}
	}
}

// TestDecompressToAllocsPinned pins decoding's allocations on a realistic
// value. compress/gzip's inflater builds Huffman link tables whenever a
// block uses codes longer than 9 bits, which a 4 KiB half-random value
// does; the count (measured: 2 allocs/op for frames this encoder writes)
// depends on the code lengths the encoder picks, so a rise means the
// encoder started emitting costlier blocks.
func TestDecompressToAllocsPinned(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pinned = 2
	c := New()
	value := workload.SyntheticSource{Compressibility: 0.5, Seed: 1}.Data(4 << 10)
	frame, err := c.Compress(value)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	dec := func() {
		out, err := c.DecompressTo(buf[:0], frame)
		if err != nil {
			t.Fatal(err)
		}
		buf = out
	}
	dec()
	if allocs := testing.AllocsPerRun(200, dec); allocs > pinned {
		t.Fatalf("DecompressTo(4 KiB) allocated %.1f times per op, pinned at %d", allocs, pinned)
	}
	if !bytes.Equal(buf, value) {
		t.Fatal("round trip differs")
	}
}
