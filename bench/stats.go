package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between order statistics — the same rule as Python's
// statistics.quantiles(method="inclusive"), so percentile(vs, 50) is the
// conventional median. It returns NaN for an empty slice and does not
// modify vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// stat is one metric aggregated over rounds: the median is the reported
// value, the quartiles and per-round values say how far to trust it.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func newStat(unit string, values []float64) stat {
	return stat{Unit: unit, Median: median(values), Q1: percentile(values, 25), Q3: percentile(values, 75), Values: values}
}

// iqrFrac is the inter-quartile range as a share of the median.
func (s stat) iqrFrac() float64 {
	if s.Median == 0 || len(s.Values) < 2 {
		return 0
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
