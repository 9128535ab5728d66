package main

import "testing"

func TestValuesNameKeyAndWrite(t *testing.T) {
	v := newValues(10, 256, 3)
	a := v.make(4, 7)
	if len(a) != 256 || !v.is(a, 4, 7) {
		t.Fatalf("value of key 4 write 7 does not check: %s", describe(a))
	}
	for _, c := range []struct {
		key int
		seq uint32
	}{{4, 6}, {4, 8}, {5, 7}, {3, 7}} {
		if v.is(a, c.key, c.seq) {
			t.Errorf("value of key 4 write 7 passes as key %d write %d", c.key, c.seq)
		}
	}
	b := append([]byte(nil), a...)
	b[200] ^= 1
	if v.is(b, 4, 7) {
		t.Error("a corrupted body passes")
	}
	if v.is(a[:255], 4, 7) {
		t.Error("a truncated value passes")
	}
	if w := newValues(10, 256, 3).make(4, 7); string(w) != string(a) {
		t.Error("the same seed gives different values")
	}
	if w := newValues(10, 256, 4).make(4, 7); string(w) == string(a) {
		t.Error("another seed gives the same values")
	}
}
