package main

import (
	"fmt"
	"math"
	"sort"
)

// Self time. A span's self time is its duration minus the union of its
// children's intervals. Two rules make the layers' self times add up to the
// end-to-end latency of the operation at the root:
//
//   - Where sibling spans overlap (the cluster's parallel replica calls),
//     the shared wall time is split evenly between them, so each instant of
//     the root's interval is counted exactly once.
//   - A child is clipped to its parent's interval. The part of a child that
//     outlives its parent (a replica call finishing after quorum), and every
//     span with no parent except the operation roots (repair, hint replay),
//     is background: counted in its own row, not in any operation.

// seg is a piece of wall time [a, b) and the share w of it a span owns.
type seg struct {
	a, b int64
	w    float64
}

// attribution accumulates self times and call statistics over traced
// blocks.
type attribution struct {
	ops     int
	opNanos float64 // summed root durations

	self    [numLayers]float64   // summed self ns per layer
	selfOps [numLayers][]float64 // per operation reaching the layer: its self ns
	calls   [numLayers]int
	callDur [numLayers][numOps][]float64 // per call: duration ns

	// childCalls counts calls made directly by each layer (a span whose
	// parent is of that layer), for attempts and fan-out ratios.
	childCalls [numLayers]int

	// The slowest operations of each block, and their self times, name
	// the layers that own the tail.
	tailOps   int
	tailNanos float64
	tailSelf  [numLayers]float64

	background      float64 // ns
	backgroundSpans int
	unfinished      int

	// reused between blocks
	kids  [][]int32
	spans []span
	block []opSelf
}

// opSelf is one operation's latency and its layers' self times.
type opSelf struct {
	ns   float64
	self [numLayers]float64
}

// tailQuantile marks the slowest operations of a block: those at or above
// its 99th percentile latency.
const tailQuantile = 0.99

// add analyses one finished block of spans.
func (a *attribution) add(spans []span) {
	a.spans = spans
	if cap(a.kids) < len(spans) {
		a.kids = make([][]int32, len(spans))
	}
	a.kids = a.kids[:len(spans)]
	for i := range a.kids {
		a.kids[i] = a.kids[i][:0]
	}
	for i, s := range spans {
		if s.end < s.start {
			a.unfinished++
			continue
		}
		a.calls[s.layer]++
		a.callDur[s.layer][s.op] = append(a.callDur[s.layer][s.op], float64(s.end-s.start))
		if s.parent > 0 {
			a.kids[s.parent-1] = append(a.kids[s.parent-1], int32(i))
			a.childCalls[spans[s.parent-1].layer]++
		}
	}
	a.block = a.block[:0]
	for i, s := range spans {
		if s.parent != 0 || s.end < s.start {
			continue
		}
		if s.layer != layerUDSM {
			a.background += float64(s.end - s.start)
			a.backgroundSpans++
			continue
		}
		var self [numLayers]float64
		var reached [numLayers]bool
		a.walk(int32(i), []seg{{s.start, s.end, 1}}, &self, &reached)
		for l := range self {
			a.self[l] += self[l]
			if reached[l] {
				a.selfOps[l] = append(a.selfOps[l], self[l])
			}
		}
		a.ops++
		a.opNanos += float64(s.end - s.start)
		a.block = append(a.block, opSelf{float64(s.end - s.start), self})
	}
	a.spans = nil

	lat := make([]float64, len(a.block))
	for i, o := range a.block {
		lat[i] = o.ns
	}
	cut := percentile(lat, tailQuantile)
	for _, o := range a.block {
		if o.ns < cut {
			continue
		}
		a.tailOps++
		a.tailNanos += o.ns
		for l, v := range o.self {
			a.tailSelf[l] += v
		}
	}
}

// walk hands span i the wall time in segs: what no child covers is i's self
// time, and what children cover is split between them and walked in turn.
func (a *attribution) walk(i int32, segs []seg, self *[numLayers]float64, reached *[numLayers]bool) {
	s := a.spans[i]
	reached[s.layer] = true
	kids := a.kids[i]
	if len(kids) == 0 {
		for _, g := range segs {
			self[s.layer] += g.w * float64(g.b-g.a)
		}
		return
	}
	type interval struct{ a, b int64 }
	clipped := make([]interval, len(kids))
	points := make([]int64, 0, 2*(len(kids)+len(segs)))
	for j, k := range kids {
		c := a.spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi < lo {
			hi = lo
		}
		a.background += float64((c.end - c.start) - (hi - lo))
		clipped[j] = interval{lo, hi}
		points = append(points, lo, hi)
	}
	for _, g := range segs {
		points = append(points, g.a, g.b)
	}
	sort.Slice(points, func(x, y int) bool { return points[x] < points[y] })

	kidSegs := make([][]seg, len(kids))
	gi := 0
	for x := 0; x+1 < len(points); x++ {
		lo, hi := points[x], points[x+1]
		if lo == hi {
			continue
		}
		for gi < len(segs) && segs[gi].b <= lo {
			gi++
		}
		if gi == len(segs) {
			break
		}
		if segs[gi].a > lo {
			continue // time another span owns
		}
		w := segs[gi].w
		cover := 0
		for _, c := range clipped {
			if c.a <= lo && hi <= c.b {
				cover++
			}
		}
		if cover == 0 {
			self[s.layer] += w * float64(hi-lo)
			continue
		}
		share := seg{lo, hi, w / float64(cover)}
		for j, c := range clipped {
			if c.a <= lo && hi <= c.b {
				kidSegs[j] = appendSeg(kidSegs[j], share)
			}
		}
	}
	for j, k := range kids {
		a.walk(k, kidSegs[j], self, reached)
	}
}

// appendSeg appends g, merging it into the last segment when they touch
// with equal shares.
func appendSeg(segs []seg, g seg) []seg {
	if n := len(segs); n > 0 && segs[n-1].b == g.a && segs[n-1].w == g.w {
		segs[n-1].b = g.b
		return segs
	}
	return append(segs, g)
}

// check verifies that the layers' self times add up to the summed
// operation latency, over all operations and over the tail.
func (a *attribution) check() error {
	if a.unfinished > 0 {
		return fmt.Errorf("%d spans never ended", a.unfinished)
	}
	for _, c := range []struct {
		self  *[numLayers]float64
		total float64
	}{{&a.self, a.opNanos}, {&a.tailSelf, a.tailNanos}} {
		sum := 0.0
		for _, v := range c.self {
			sum += v
		}
		if math.Abs(sum-c.total) > 1e-6*math.Max(c.total, 1) {
			return fmt.Errorf("layer self times add up to %.0f ns, operations took %.0f ns", sum, c.total)
		}
	}
	return nil
}

// percentile returns the nearest-rank q-quantile of xs (sorting xs), or 0
// for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
