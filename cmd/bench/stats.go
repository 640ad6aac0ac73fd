package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of vs by linear
// interpolation between order statistics; vs need not be sorted and is
// not modified. It is NaN for an empty slice.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// summary is one metric over the repetitions of one workload.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values"`
}

// spread is the distance between the quartiles as a share of the median,
// the measure of run-to-run noise the PR gate uses.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func summarize(unit string, vs []float64) summary {
	return summary{
		Unit: unit, Median: median(vs), Q1: quantile(vs, 0.25), Q3: quantile(vs, 0.75),
		Min: quantile(vs, 0), Max: quantile(vs, 1), Values: vs,
	}
}
