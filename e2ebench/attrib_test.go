package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// An operation through DSCL into a cluster whose two replica calls overlap,
// one of them finishing after the cluster call returned, plus a repair with
// no operation above it.
func TestSelfTimeOverlapOverhangBackground(t *testing.T) {
	spans := []span{
		{parent: 0, layer: layerUDSM, op: opGet, start: 0, end: 100}, // slot 0
		{parent: 1, layer: layerDSCL, op: opGet, start: 10, end: 90},
		{parent: 2, layer: layerCluster, op: opGet, start: 20, end: 80},
		{parent: 3, layer: layerMiniredis, op: opGet, start: 30, end: 60},
		{parent: 3, layer: layerMiniredis, op: opGet, start: 40, end: 95},   // outlives its parent by 15
		{parent: 0, layer: layerMiniredis, op: opPut, start: 200, end: 250}, // repair
	}
	var a attribution
	a.add(spans)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	want := map[layer]float64{
		layerUDSM:      20, // [0,10) and [90,100)
		layerDSCL:      20, // [10,20) and [80,90)
		layerCluster:   10, // [20,30)
		layerMiniredis: 50, // [30,40) + [40,60) split two ways + [60,80)
	}
	for l, w := range want {
		if !near(a.self[l], w) {
			t.Errorf("%s self = %v, want %v", layerNames[l], a.self[l], w)
		}
	}
	if a.ops != 1 || !near(a.opNanos, 100) {
		t.Errorf("ops = %d over %v ns, want 1 over 100", a.ops, a.opNanos)
	}
	if !near(a.background, 15+50) || a.backgroundSpans != 1 {
		t.Errorf("background = %v ns in %d spans, want 65 in 1", a.background, a.backgroundSpans)
	}
	if a.calls[layerMiniredis] != 3 || a.childCalls[layerCluster] != 2 {
		t.Errorf("miniredis calls = %d, cluster children = %d; want 3 and 2",
			a.calls[layerMiniredis], a.childCalls[layerCluster])
	}
	if got := a.selfOps[layerMiniredis]; len(got) != 1 || !near(got[0], 50) {
		t.Errorf("per-op miniredis self = %v, want [50]", got)
	}
	if got := a.selfOps[layerCloudsim]; len(got) != 0 {
		t.Errorf("an operation that never reached cloudsim counted there: %v", got)
	}
}

// A grandchild under overlapping siblings inherits its parent's share.
func TestSelfTimeSharesDescend(t *testing.T) {
	spans := []span{
		{parent: 0, layer: layerUDSM, start: 0, end: 100},
		{parent: 1, layer: layerCluster, start: 0, end: 100},
		{parent: 1, layer: layerResilient, start: 0, end: 100},
		{parent: 2, layer: layerMiniredis, start: 0, end: 50},
	}
	var a attribution
	a.add(spans)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	want := map[layer]float64{layerUDSM: 0, layerCluster: 25, layerResilient: 50, layerMiniredis: 25}
	for l, w := range want {
		if !near(a.self[l], w) {
			t.Errorf("%s self = %v, want %v", layerNames[l], a.self[l], w)
		}
	}
}

// Several operations, children touching their parents' edges and each
// other, still add up exactly.
func TestSelfTimeAddsUp(t *testing.T) {
	var spans []span
	for op := int64(0); op < 50; op++ {
		base := op * 1000
		root := int32(len(spans)) + 1
		spans = append(spans, span{layer: layerUDSM, start: base, end: base + 700 + op})
		spans = append(spans, span{parent: root, layer: layerDSCL, start: base, end: base + 600})
		dscl := int32(len(spans))
		spans = append(spans,
			span{parent: dscl, layer: layerGzip, op: opEncode, start: base + 10, end: base + 30},
			span{parent: dscl, layer: layerAES, op: opEncode, start: base + 30, end: base + 31},
			span{parent: dscl, layer: layerResilient, start: base + 31, end: base + 600},
		)
		res := int32(len(spans))
		spans = append(spans,
			span{parent: res, layer: layerMinisql, start: base + 40, end: base + 300},
			span{parent: res, layer: layerMinisql, start: base + 299, end: base + 650 + op},
		)
	}
	var a attribution
	a.add(spans)
	if err := a.check(); err != nil {
		t.Fatal(err)
	}
	if a.ops != 50 || len(a.selfOps[layerMinisql]) != 50 {
		t.Errorf("ops = %d, minisql samples = %d; want 50 and 50", a.ops, len(a.selfOps[layerMinisql]))
	}
	// The tail is the slowest operation: 749 ns, the last 149 of them
	// after DSCL returned.
	if a.tailOps != 1 || !near(a.tailNanos, 749) || !near(a.tailSelf[layerUDSM], 149) {
		t.Errorf("tail: %d ops, %v ns, udsm self %v; want 1, 749, 149", a.tailOps, a.tailNanos, a.tailSelf[layerUDSM])
	}
}

func TestSelfTimeCheckCatchesUnfinishedSpans(t *testing.T) {
	var a attribution
	a.add([]span{{layer: layerUDSM, start: 5, end: 0}})
	if a.check() == nil {
		t.Fatal("an unfinished span passed the check")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.2: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}
