package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentile is the highest whole percentile p with at least ten of n
// samples beyond its nearest-rank position ceil(p·n/100). ok is false when
// n is too small for any percentile to have ten samples beyond it.
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 1; p-- {
		if n-int(math.Ceil(float64(p)*float64(n)/100)) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(p)*float64(len(s))/100)) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// span is one timed interval of a traced job: a call into a layer's
// public API, or a child interval rebuilt from the stats a call returned.
// Times are offsets from the job's start.
type span struct {
	name       string
	layer      string
	start, end time.Duration
	parent     int // index of the parent span, -1 for the job root
}

// tracer collects the spans of one job. A nil tracer records nothing, so
// untraced jobs pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span under parent and returns its index.
func (tr *tracer) begin(name, layer string, parent int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0)
	tr.spans = append(tr.spans, span{name: name, layer: layer, start: now, end: now, parent: parent})
	return len(tr.spans) - 1
}

// end closes the span begin returned.
func (tr *tracer) end(i int) {
	if tr == nil {
		return
	}
	tr.spans[i].end = time.Since(tr.t0)
}

// add records a finished child span from known offsets.
func (tr *tracer) add(name, layer string, parent int, start, end time.Duration) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{name: name, layer: layer, start: start, end: end, parent: parent})
	return len(tr.spans) - 1
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval its direct children cover (overlapping children count once,
// and child time outside the parent does not count).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.parent] = append(children[s.parent], s)
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.layer] += (s.end - s.start) - covered(s, children[i])
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}
