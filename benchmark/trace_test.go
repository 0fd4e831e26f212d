package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/binstat"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/coverage"
)

var errTest = errors.New("spec error")

func resultWithBranches(bits ...conc.BranchBit) core.Result {
	cov := coverage.New()
	for _, b := range bits {
		cov.AddBranch(b)
	}
	return core.Result{Coverage: cov}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "batch", Layer: "sched", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "campaign", Layer: "core", Parent: 0, Start: 10 * ms, End: 90 * ms},
		{Name: "Launch", Layer: "mpi", Parent: 1, Start: 20 * ms, End: 40 * ms},
		// Overlaps the launch: the overlap counts once.
		{Name: "SolveIncremental", Layer: "solver", Parent: 1, Start: 30 * ms, End: 50 * ms},
		// Sticks out past its parent: only the covered part is subtracted.
		{Name: "SaveCampaign", Layer: "store", Parent: 1, Start: 80 * ms, End: 95 * ms},
		{Name: "Launch", Layer: "mpi", Parent: 2, Start: 25 * ms, End: 30 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{20 * ms, 40 * ms, 15 * ms, 20 * ms, 15 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["mpi"] != 20*ms || layers["core"] != 40*ms || layers["sched"] != 20*ms {
		t.Errorf("layer self times %v", layers)
	}
}

func TestCampaignTraceIterations(t *testing.T) {
	tr := newTracer()
	batch, end := tr.root("batch", "sched")
	ct := tr.campaign(batch)
	start := tr.now()
	ct.call("Launch", "mpi", start)
	ct.iterDone(core.IterationStat{Elapsed: time.Microsecond})
	ct.call("SaveCampaign", "store", tr.now())
	ct.finish()
	end()

	var names []string
	for _, s := range tr.spans {
		names = append(names, s.Name)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	// batch, campaign, first iteration, its launch, the trailing iteration
	// holding the checkpoint write, and the write itself.
	want := []string{"batch", "campaign", "iteration", "Launch", "iteration", "SaveCampaign"}
	if len(names) != len(want) {
		t.Fatalf("spans %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("spans %v, want %v", names, want)
		}
	}
	if tr.spans[3].Parent != 2 || tr.spans[5].Parent != 4 || tr.spans[4].Parent != 1 {
		t.Errorf("parents: %+v", tr.spans)
	}
}

func TestLeaseSplitByMeasuredBins(t *testing.T) {
	ms := time.Millisecond
	bins := func(exec, solve, other time.Duration) binstat.Report {
		return binstat.Report{
			{Name: "execute", Count: 1, Nanos: int64(exec)},
			{Name: "solve", Count: 1, Nanos: int64(solve)},
			{Name: "negate", Count: 1, Nanos: int64(other)},
		}
	}
	tr := newTracer()
	batch := tr.add(span{Name: "batch", Layer: "fleet", Parent: -1, Start: 0, End: 200 * ms})
	// In-process lease: 100 ms, of which 60 ms are engine bins.
	addLease(tr, batch, &leaseTrace{Start: 0, End: 100 * ms, Profile: bins(40*ms, 15*ms, 5*ms)}, 0)
	// Pipe-backed lease: its execute is 30 ms beyond its twin's 40 ms.
	addLease(tr, batch, &leaseTrace{External: true, Start: 100 * ms, End: 200 * ms, Profile: bins(70*ms, 10*ms, 0)}, 40*ms)
	self := layerSelf(tr.spans)
	want := map[string]time.Duration{"mpi": 80 * ms, "solver": 25 * ms, "core": 5 * ms, "proto": 30 * ms, "fleet": 60 * ms}
	for l, d := range want {
		if self[l] != d {
			t.Errorf("%s self %v, want %v (all %v)", l, self[l], d, self)
		}
	}

	// Bins that add up to more than the lease are clamped to it: nothing
	// is counted outside the lease, and the fleet's share is zero.
	tr = newTracer()
	batch = tr.add(span{Name: "batch", Layer: "fleet", Parent: -1, Start: 0, End: 50 * ms})
	addLease(tr, batch, &leaseTrace{Start: 0, End: 50 * ms, Profile: bins(40*ms, 30*ms, 0)}, 0)
	self = layerSelf(tr.spans)
	if self["mpi"] != 40*ms || self["solver"] != 10*ms || self["fleet"] != 0 {
		t.Errorf("clamped lease: %v", self)
	}
	for _, s := range tr.spans {
		if s.End > 50*ms {
			t.Errorf("span %s ends at %v, past the lease", s.Name, s.End)
		}
	}
}
