package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs: the smallest sample
// with at least p% of the samples at or below it. It also returns how many
// samples lie beyond that rank.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

// tailLadder is the set of percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailStat is a tail latency: the highest percentile of tailLadder that
// still has at least minBeyond samples past it, so the figure rests on more
// than a handful of outliers.
type tailStat struct {
	Pct    float64 // the percentile reported
	Value  float64
	N      int // sample count
	Beyond int // samples past the reported rank
}

const minBeyond = 10

// tail picks the highest percentile with at least minBeyond samples beyond
// it. With too few samples for any rung it falls back to the median and says
// so through Beyond < minBeyond.
func tail(xs []float64) tailStat {
	for _, p := range tailLadder {
		v, beyond := percentile(xs, p)
		if beyond >= minBeyond {
			return tailStat{Pct: p, Value: v, N: len(xs), Beyond: beyond}
		}
	}
	v, beyond := percentile(xs, 50)
	return tailStat{Pct: 50, Value: v, N: len(xs), Beyond: beyond}
}

func (t tailStat) label() string {
	return fmt.Sprintf("p%g (n=%d, %d beyond)", t.Pct, t.N, t.Beyond)
}

// iterLatencies turns a campaign's cumulative IterationStat.Elapsed series
// into per-iteration latencies in milliseconds. Elapsed restarts from zero in
// every engine session, so a resumed campaign's series drops at the session
// boundary; the first iteration of each session is its own Elapsed.
func iterLatencies(elapsed []time.Duration) []float64 {
	out := make([]float64, 0, len(elapsed))
	var prev time.Duration
	for _, e := range elapsed {
		d := e - prev
		if e < prev {
			d = e
		}
		out = append(out, float64(d)/float64(time.Millisecond))
		prev = e
	}
	return out
}

// ratio is a quotient printed with its base, so a reader can tell a ratio
// that moved because its numerator changed from one whose base did.
type ratio struct {
	Num, Den         float64
	NumName, DenName string
	Unit             string // unit of Num and Den
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.4f (%s %.6g%s / %s %.6g%s)",
		r.Value(), r.NumName, r.Num, r.Unit, r.DenName, r.Den, r.Unit)
}

// failures counts failed operations against campaigns attempted: a campaign
// whose Err is set, a failed fleet shard, a reclaimed lease, and every
// correctness-gate mismatch each count once.
type failures struct {
	Attempted int
	Failed    int
	Reasons   []string
}

func (f *failures) attempt(n int) { f.Attempted += n }

func (f *failures) fail(format string, args ...any) {
	f.Failed++
	f.Reasons = append(f.Reasons, fmt.Sprintf(format, args...))
}

func (f *failures) ratio() ratio {
	return ratio{Num: float64(f.Failed), Den: float64(f.Attempted),
		NumName: "failed", DenName: "attempted"}
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
