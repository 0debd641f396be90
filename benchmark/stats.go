package main

import (
	"math"
	"sort"
	"time"
)

// sample is a set of timings of one case or op class.
type sample []time.Duration

func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of the sample by linear
// interpolation between closest ranks; an empty sample reads 0.
func (s sample) percentile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	v := s.sorted()
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return v[lo] + time.Duration(frac*float64(v[hi]-v[lo]))
}

func (s sample) median() time.Duration { return s.percentile(0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// geomean combines the positive values so that each counts equally; zeros
// and negatives (a case or class that did not run) are left out, and no
// positive value at all reads 0.
func geomean(vals ...float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func medianOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// selfTime is a layer's own share of an op: its median minus the medians
// of the layers it calls for the same op, floored at zero because the
// layers are timed in separate replays and noise can invert a thin layer.
func selfTime(total float64, children ...float64) float64 {
	for _, c := range children {
		total -= c
	}
	return math.Max(total, 0)
}

// spread is the distance between the first and third quartile as a share
// of the median, by the exclusive method Python's statistics.quantiles
// uses; fewer than two values have no spread.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	quart := func(i int) float64 {
		n := len(v)
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	med := medianOf(v)
	if med == 0 {
		return 0
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med)
}
