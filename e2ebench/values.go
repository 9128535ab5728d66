package main

import (
	"bytes"
	"fmt"
	"strconv"

	"edsc/workload"
)

// valueBodies is the number of distinct payload bodies a run draws from.
const valueBodies = 16

// values generates and checks the benchmark's values. Every value starts
// with a header naming its key and write sequence ("user00042#17|"), and
// the rest is one of a few seeded synthetic bodies picked by key and
// sequence, so a read can be checked byte for byte against the write it
// should return without storing any expected value.
type values struct {
	size   int
	names  []string
	bodies [valueBodies][]byte
}

func newValues(keys, size int, seed int64) *values {
	v := &values{size: size, names: make([]string, keys)}
	for i := range v.names {
		v.names[i] = fmt.Sprintf("user%05d", i)
	}
	for i := range v.bodies {
		src := workload.SyntheticSource{Compressibility: 0.5, Seed: seed*valueBodies + int64(i)}
		v.bodies[i] = src.Data(size)
	}
	return v
}

func (v *values) body(key int, seq uint32) []byte {
	return v.bodies[(uint32(key)*31+seq)%valueBodies]
}

func (v *values) header(dst []byte, key int, seq uint32) []byte {
	dst = append(dst[:0], v.names[key]...)
	dst = append(dst, '#')
	dst = strconv.AppendUint(dst, uint64(seq), 10)
	return append(dst, '|')
}

// make returns the value written to key by its seq-th write (0 = preload).
func (v *values) make(key int, seq uint32) []byte {
	out := make([]byte, v.size)
	copy(out, v.body(key, seq))
	var hdr [32]byte
	copy(out, v.header(hdr[:0], key, seq))
	return out
}

// is reports whether got is exactly the value of key's seq-th write.
func (v *values) is(got []byte, key int, seq uint32) bool {
	var buf [32]byte
	hdr := v.header(buf[:0], key, seq)
	return len(got) == v.size && bytes.HasPrefix(got, hdr) &&
		bytes.Equal(got[len(hdr):], v.body(key, seq)[len(hdr):])
}

// describe names what a wrong value holds, for the error report.
func describe(got []byte) string {
	if i := bytes.IndexByte(got, '|'); i > 0 && i < 32 {
		return fmt.Sprintf("%d bytes headed %q", len(got), got[:i])
	}
	return fmt.Sprintf("%d bytes with no header", len(got))
}
