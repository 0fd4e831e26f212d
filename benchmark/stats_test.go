package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting is exercised
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{1000, 99, 990, 10}, // p99.9 would leave 1 beyond
		{999, 95, 950, 49},  // p99 is rank 990 with only 9 beyond
		{200, 95, 190, 10},  // p99 leaves 2
		{100, 90, 90, 10},   // p95 leaves 5
		{40, 75, 30, 10},    // p90 leaves 4
		{12, 50, 6, 6},      // nothing keeps 10 beyond: median, flagged by Beyond
		{1, 50, 1, 0},
	} {
		got := tail(seq(tc.n))
		if got.Pct != tc.pct || got.Value != tc.value || got.Beyond != tc.beyond || got.N != tc.n {
			t.Errorf("n=%d: got %+v, want p%g=%g with %d beyond", tc.n, got, tc.pct, tc.value, tc.beyond)
		}
		if !strings.Contains(got.label(), "n=") {
			t.Errorf("label %q does not state the sample count", got.label())
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %g", m)
	}
}

func TestIterLatenciesFromCumulativeElapsed(t *testing.T) {
	ms := time.Millisecond
	// Two sessions: a resumed campaign's Elapsed restarts from zero.
	got := iterLatencies([]time.Duration{2 * ms, 5 * ms, 9 * ms, 1 * ms, 4 * ms})
	want := []float64{2, 3, 4, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 4, NumName: "pipe-backed campaign", DenName: "in-process twin", Unit: "ms"}
	s := r.String()
	for _, part := range []string{"0.7500", "pipe-backed campaign 3ms", "in-process twin 4ms"} {
		if !strings.Contains(s, part) {
			t.Errorf("%q lacks %q", s, part)
		}
	}
	if (ratio{Num: 1}).Value() != 0 {
		t.Error("a ratio over an empty base must read 0")
	}
}

func TestFailRatioCounting(t *testing.T) {
	var f failures
	f.attempt(8)
	f.attempt(8)
	f.fail("campaign %s: outcome differs from the reference", "a")
	f.fail("lease reclaimed")
	if f.Failed != 2 || f.Attempted != 16 || len(f.Reasons) != 2 {
		t.Fatalf("got %+v", f)
	}
	r := f.ratio()
	if r.Value() != 0.125 || !strings.Contains(r.String(), "failed 2 / attempted 16") {
		t.Errorf("ratio %s", r)
	}
}

func TestCheckCountsEveryFailure(t *testing.T) {
	ok := campOut{Label: "a", Result: resultWithBranches(1, 2)}
	b := &bench{refs: map[string]outcome{"a": outcomeOf(ok.Result)}}
	b.check(&repOut{camps: []campOut{ok}})
	if b.fails.Failed != 0 || b.fails.Attempted != 1 {
		t.Fatalf("clean repetition: %+v", b.fails)
	}
	bad := campOut{Label: "a", Result: resultWithBranches(1)}
	errd := campOut{Label: "b", Err: errTest}
	b.check(&repOut{camps: []campOut{bad, errd}, failed: []string{"lease reclaimed"}})
	if b.fails.Failed != 3 || b.fails.Attempted != 3 {
		t.Fatalf("mismatch + Err + reclaim: %+v", b.fails)
	}
	b.check(&repOut{camps: []campOut{{Label: "c", Result: resultWithBranches(1)}}})
	if b.fails.Failed != 4 || b.fails.Attempted != 4 {
		t.Fatalf("campaign without a reference: %+v", b.fails)
	}
}
