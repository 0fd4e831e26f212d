// Command benchmark runs one of the repository's benchmark workloads for a
// fixed time, checks every campaign's outcome against a reference run, and
// prints each metric by name and unit. The last line of standard output is a
// JSON object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	benchmark --workload store-resume --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced repetitions;
// with --trace 1 it alternates untraced and traced repetitions and reports
// the per-layer metrics. README.md explains the workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	_ "repro/internal/targets/hpl"
	_ "repro/internal/targets/mworder"
	_ "repro/internal/targets/relay"
	_ "repro/internal/targets/skeleton"
	_ "repro/internal/targets/stencil"
	_ "repro/internal/targets/susy"
)

// serveTargetArg makes the binary serve a registered program over the pipe
// protocol instead of benchmarking: fleet-mixed's pipe-backed campaign runs
// against this binary itself, so no separate target build is needed.
const serveTargetArg = "serve-target"

// setupReps is how many times a run repeats its workload's set-up; setup_s
// is their median.
const setupReps = 75

// minReps is the fewest timed repetitions a run makes, even past --seconds.
const minReps = 3

func main() {
	if len(os.Args) == 3 && os.Args[1] == serveTargetArg {
		prog, ok := target.Lookup(os.Args[2])
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown target %q\n", os.Args[2])
			os.Exit(2)
		}
		if err := proto.Serve(os.Stdin, os.Stdout, prog); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run: susy-deep, hpl-grid, store-resume, fleet-mixed")
		seed    = flag.Int64("seed", 1, "workload seed; every campaign seed derives from it")
		seconds = flag.Int("seconds", 20, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics of traced repetitions")
	)
	flag.Parse()
	w := lookupWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
}

// bench is one run's state: its scratch directory, the references, and the
// failure count.
type bench struct {
	seed  int64
	cur   int64 // the current repetition's seed
	dir   string
	self  string
	fails failures

	refs    map[string]outcome // reference outcome per campaign label
	refWall time.Duration      // reference makespan (base of a ratio)
	refName string

	spawns     []float64 // pipe-target spawn + handshake, ms
	setupStore string    // store-resume's set-up store, filled once
}

// engineConfig lowers a campaign to the engine config it runs with.
func engineConfig(c spec.Campaign) (core.Config, error) {
	cfg, err := c.EngineConfig()
	if err != nil {
		return cfg, err
	}
	prog, ok := target.Lookup(c.Target)
	if !ok {
		return cfg, fmt.Errorf("unknown target %q", c.Target)
	}
	cfg.Program = prog
	return cfg, nil
}

func (b *bench) setRefs(camps []sched.Campaign) error {
	b.refs = map[string]outcome{}
	for _, c := range camps {
		if c.Err != nil {
			return fmt.Errorf("reference campaign %s: %w", c.Label, c.Err)
		}
		b.refs[c.Label] = outcomeOf(c.Result)
	}
	return nil
}

// outcome is what the correctness gate compares: the exact covered branch
// and function sets, and the sorted distinct error keys.
type outcome struct {
	FP   string
	Errs string
}

func errorKeys(r core.Result) []string {
	seen := map[string]bool{}
	var keys []string
	for _, e := range r.Errors {
		k := e.Status.String() + "|" + e.Msg
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func outcomeOf(r core.Result) outcome {
	var funcs []string
	for f := range r.Coverage.Funcs() {
		funcs = append(funcs, f)
	}
	return outcome{
		FP:   store.CoverageFingerprint(r.Coverage.Branches(), funcs),
		Errs: strings.Join(errorKeys(r), "\n"),
	}
}

// campOut is one campaign outcome a repetition produced.
type campOut struct {
	Label, Target string
	Result        core.Result
	Err           error
}

// repOut is one repetition of a workload.
type repOut struct {
	wall    time.Duration
	workers int
	camps   []campOut     // outcomes the gate checks
	runs    []core.Result // engine sessions executed (iteration statistics)
	iters   int
	lat     []float64 // per-iteration latency, ms

	reportMS []float64 // store-resume's report query latencies
	failed   []string  // failures the repetition detected itself

	layer   map[string]any // per-layer values: float64, ratio or noted
	note    string         // how the layer shares were attributed, if not by spans alone
	solver  solver.Stats
	prof    *binstat.Profiler
	profRep binstat.Report
}

func (r *repOut) set(name string, v any) {
	if r.layer == nil {
		r.layer = map[string]any{}
	}
	r.layer[name] = v
}

func (r *repOut) fail(format string, args ...any) {
	r.failed = append(r.failed, fmt.Sprintf(format, args...))
}

// add records a campaign that ran in this repetition, both for the gate and
// for iteration statistics.
func (r *repOut) add(label, target string, res core.Result, err error) {
	r.gate(label, target, res, err)
	r.addRun(res, err)
}

func (r *repOut) gate(label, target string, res core.Result, err error) {
	r.camps = append(r.camps, campOut{Label: label, Target: target, Result: res, Err: err})
}

func (r *repOut) addRun(res core.Result, err error) {
	if err != nil {
		return
	}
	r.runs = append(r.runs, res)
	el := make([]time.Duration, len(res.Iterations))
	for i, it := range res.Iterations {
		el[i] = it.Elapsed
	}
	r.lat = append(r.lat, iterLatencies(el)...)
	r.iters += len(res.Iterations)
}

// repSeed derives repetition r's seed from the workload seed: every
// repetition runs different campaigns, so one run's medians average over
// many campaign seeds instead of resting on a few.
func repSeed(seed int64, r int) int64 {
	return campaignSeeds(seed^int64(r)*0x5851f42d4c957f2d, 1)[0]
}

// next moves to repetition r and runs its reference outside the timed
// region.
func (b *bench) next(w *workload, r int) error {
	b.cur = repSeed(b.seed, r)
	b.refs = nil
	if err := w.prepare(b); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}

// check gates one repetition: every campaign must have run and match the
// reference.
func (b *bench) check(r *repOut) {
	b.fails.attempt(len(r.camps))
	for _, c := range r.camps {
		if c.Err != nil {
			b.fails.fail("campaign %s: %v", c.Label, c.Err)
			continue
		}
		ref, ok := b.refs[c.Label]
		if !ok {
			b.fails.fail("campaign %s has no reference", c.Label)
		} else if got := outcomeOf(c.Result); got != ref {
			b.fails.fail("campaign %s: outcome differs from the reference", c.Label)
		}
	}
	for _, f := range r.failed {
		b.fails.fail("%s", f)
	}
}

// coverageAndErrors sums union coverage per target and counts distinct
// error keys per target over the gated campaigns.
func coverageAndErrors(r *repOut) (branches, errs int) {
	cov := map[string]*coverage.Tracker{}
	keys := map[string]bool{}
	for _, c := range r.camps {
		if c.Err != nil {
			continue
		}
		t := cov[c.Target]
		if t == nil {
			t = coverage.New()
			cov[c.Target] = t
		}
		t.Merge(c.Result.Coverage)
		for _, k := range errorKeys(c.Result) {
			keys[c.Target+"|"+k] = true
		}
	}
	for _, t := range cov {
		branches += t.Count()
	}
	return branches, len(keys)
}

// noted is a per-layer value printed with an explanation.
type noted struct {
	v    float64
	note string
}

// metric is one printed figure.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // sample count, percentile, or ratio base
}

func run(w *workload, seed int64, measure time.Duration, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: seed, cur: seed, dir: dir, self: self}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := w.setup(b)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("workload %s  seed %d  closed loop, at most %d workers\n", w.name, seed, workers)
	if traced {
		return runTraced(w, b, measure, setups)
	}

	var reps []repSummary
	var timed time.Duration
	for len(reps) < minReps || timed < measure {
		if err := b.next(w, len(reps)); err != nil {
			return err
		}
		r, mem, err := runUntraced(w, b)
		if err != nil {
			return err
		}
		b.check(r)
		reps = append(reps, summarize(r, mem.peak))
		timed += r.wall
	}
	ms := endToEnd(reps, setups, b)
	for _, m := range ms {
		fmt.Printf("%-18s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for _, why := range b.fails.Reasons {
		fmt.Printf("FAILED: %s\n", why)
	}
	return printResult(b, ms, endToEndNames)
}

// repMem is what one untraced repetition did to memory: its peak resident
// set and the allocation and collection work the Go runtime counted.
type repMem struct {
	peak   peakRSS
	alloc  uint64 // bytes allocated
	cycles uint32 // GC cycles
	pause  uint64 // GC pause, ns
}

// runUntraced runs one timed repetition without tracing.
func runUntraced(w *workload, b *bench) (*repOut, repMem, error) {
	// Collect the reference's garbage and hand its pages back now, not
	// inside the timed region, so the peak below is this repetition's own.
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	reset := resetPeakRSS()
	r, err := w.run(b, nil)
	if err != nil {
		return nil, repMem{}, err
	}
	mem := repMem{peak: readPeakRSS(reset)}
	runtime.ReadMemStats(&m1)
	mem.alloc = m1.TotalAlloc - m0.TotalAlloc
	mem.cycles = m1.NumGC - m0.NumGC
	mem.pause = m1.PauseTotalNs - m0.PauseTotalNs
	return r, mem, nil
}

// endToEndNames are the metrics BENCHMARK.json lists as end-to-end; the
// others endToEnd prints are informational.
var endToEndNames = []string{"wall_s", "iters_per_s", "iter_ms_p50", "iter_ms_tail", "setup_s", "peak_rss_mb", "branches_covered", "distinct_errors"}

// repSummary is what a timed repetition leaves behind; the campaigns
// themselves are dropped so memory does not grow with the run's length.
type repSummary struct {
	wall     time.Duration
	iters    int
	p50      float64
	tail     tailStat
	branches int
	errs     int
	reportMS []float64
	peak     peakRSS
}

func summarize(r *repOut, peak peakRSS) repSummary {
	branches, errs := coverageAndErrors(r)
	return repSummary{wall: r.wall, iters: r.iters, p50: median(r.lat), tail: tail(r.lat),
		branches: branches, errs: errs, reportMS: r.reportMS, peak: peak}
}

func endToEnd(reps []repSummary, setups []float64, b *bench) []metric {
	var walls, rates, p50s, tails, branches, errs, reportMS, peaks []float64
	peakNote := "peak resident set of each repetition (VmHWM reset before it)"
	for _, r := range reps {
		peaks = append(peaks, r.peak.MB)
		if !r.peak.PerRep {
			peakNote = "maximum resident set of the whole process (VmHWM could not be reset)"
		}
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.iters)/r.wall.Seconds())
		p50s = append(p50s, r.p50)
		tails = append(tails, r.tail.Value)
		branches = append(branches, float64(r.branches))
		errs = append(errs, float64(r.errs))
		reportMS = append(reportMS, r.reportMS...)
	}
	reps1 := fmt.Sprintf("median of %d repetitions", len(reps))
	fr := b.fails.ratio()
	ms := []metric{
		{"wall_s", "s", median(walls), reps1},
		{"iters_per_s", "1/s", median(rates), fmt.Sprintf("%s of %d executions each", reps1, reps[0].iters)},
		{"iter_ms_p50", "ms", median(p50s), fmt.Sprintf("%s of %d iterations each", reps1, reps[0].tail.N)},
		{"iter_ms_tail", "ms", median(tails), fmt.Sprintf("%s, each %s", reps1, reps[0].tail.label())},
		{"setup_s", "s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups))},
		{"peak_rss_mb", "MB", median(peaks), fmt.Sprintf("%s, %s", reps1, peakNote)},
		{"branches_covered", "count", median(branches), reps1 + ", union per target summed"},
		{"distinct_errors", "count", median(errs), reps1 + ", distinct status|message keys per target"},
		{"fail_ratio", "ratio", fr.Value(), fr.String()},
	}
	if len(reportMS) > 0 {
		t := tail(reportMS)
		ms = append(ms,
			metric{"report_ms_p50", "ms", median(reportMS), fmt.Sprintf("n=%d", len(reportMS))},
			metric{"report_ms_tail", "ms", t.Value, t.label()})
	}
	return ms
}

// peakRSS is one repetition's peak resident memory. PerRep is false when
// the kernel's high-water mark could not be reset, so MB is the peak of the
// whole process so far.
type peakRSS struct {
	MB     float64
	PerRep bool
}

// resetPeakRSS resets the process's resident-set high-water mark (VmHWM) to
// its current resident set, and reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// readPeakRSS reads the high-water mark since the last reset, falling back
// to the process maximum from getrusage.
func readPeakRSS(reset bool) peakRSS {
	if reset {
		if data, err := os.ReadFile("/proc/self/status"); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						return peakRSS{MB: kb / 1024, PerRep: true}
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return peakRSS{}
	}
	return peakRSS{MB: float64(ru.Maxrss) / 1024} // Linux reports KiB
}

// printResult writes the final JSON line with the named metrics.
func printResult(b *bench, ms []metric, names []string) error {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	for _, n := range names {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{b.fails.Failed == 0, b.fails.Attempted, b.fails.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// layerMetrics lists every per-layer metric with its unit, in print order.
// A workload that does not exercise a layer reports 0 for it.
var layerMetrics = [][2]string{
	{"trace_overhead_s", "s"},
	{"share.core", "ratio"}, {"share.solver", "ratio"}, {"share.mpi", "ratio"},
	{"share.sched", "ratio"}, {"share.store", "ratio"}, {"share.fleet", "ratio"}, {"share.proto", "ratio"},
	{"core.self_s", "s"}, {"core.solver_calls_per_iter", "ratio"}, {"core.sat_ratio", "ratio"},
	{"core.refuted_skips", "count"}, {"core.restarts", "count"},
	{"core.sched_choice_points", "count"}, {"core.sched_orders", "count"}, {"core.deadlocks", "count"},
	{"expr.canon_s", "s"},
	{"gc.alloc_mb_per_iter", "MB"}, {"gc.cycles", "count"}, {"gc.pause_ms", "ms"},
	{"solver.calls", "count"}, {"solver.busy_s", "s"}, {"solver.call_us_p50", "us"}, {"solver.call_us_p99", "us"},
	{"solver.preds_per_call", "count"}, {"solver.hit_rate", "ratio"}, {"solver.unsat_hits", "count"}, {"solver.live_solves", "count"},
	{"mpi.launches", "count"}, {"mpi.busy_s", "s"}, {"mpi.launch_ms_p50", "ms"}, {"mpi.launch_ms_p99", "ms"},
	{"mpi.ranks_per_launch", "count"}, {"mpi.failed_launches", "count"},
	{"conc.log_kb_per_iter", "KB"}, {"conc.path_len_mean", "count"}, {"conc.reduction_ratio", "ratio"},
	{"sched.utilization", "ratio"}, {"sched.speedup", "ratio"}, {"sched.straggler_ratio", "ratio"},
	{"store.checkpoint_writes", "count"}, {"store.snapshot_kb_mean", "KB"}, {"store.bytes_on_disk", "bytes"},
	{"store.overhead_ratio", "ratio"}, {"store.reused", "count"}, {"store.warm_unsat", "count"},
	{"store.index_ms", "ms"}, {"store.reindex_ms", "ms"}, {"store.minimize_ms", "ms"}, {"store.cache_load_ms", "ms"},
	{"store.report_ms_p50", "ms"}, {"store.report_ms_tail", "ms"},
	{"fleet.frames_up", "count"}, {"fleet.bytes_up", "bytes"}, {"fleet.bytes_down", "bytes"}, {"fleet.bytes_per_iter", "bytes"},
	{"fleet.leases", "count"}, {"fleet.reclaims", "count"}, {"fleet.overhead_ratio", "ratio"}, {"fleet.handshake_ms", "ms"},
	{"proto.spawn_ms", "ms"}, {"proto.overhead_ratio", "ratio"},
}

// shareLayers are the layers self time is attributed to.
var shareLayers = []string{"core", "solver", "mpi", "sched", "store", "fleet", "proto"}

// runTraced alternates untraced and traced repetitions for the measuring
// time and reports the traced repetitions' per-layer metrics.
func runTraced(w *workload, b *bench, measure time.Duration, setups []float64) error {
	var plain, traced []float64
	var sums []repSummary
	var last *repOut
	var lastTr *tracer
	var gcIters int
	var gcAlloc, gcPause uint64
	var gcCycles uint32
	var timed time.Duration
	for len(traced) < 1 || timed < measure {
		if err := b.next(w, len(traced)); err != nil {
			return err
		}
		r, mem, err := runUntraced(w, b)
		if err != nil {
			return err
		}
		b.check(r)
		plain = append(plain, r.wall.Seconds())
		sums = append(sums, summarize(r, mem.peak))
		gcIters += r.iters
		gcAlloc += mem.alloc
		gcCycles += mem.cycles
		gcPause += mem.pause
		untraced := r

		tr := newTracer()
		r, err = w.run(b, tr)
		if err != nil {
			return err
		}
		b.check(r)
		// The traced repetition must reproduce the untraced one exactly.
		for i, c := range r.camps {
			if i < len(untraced.camps) && c.Err == nil && outcomeOf(c.Result) != outcomeOf(untraced.camps[i].Result) {
				b.fails.fail("campaign %s: traced outcome differs from untraced", c.Label)
			}
		}
		traced = append(traced, r.wall.Seconds())
		timed += untraced.wall + r.wall
		last, lastTr = r, tr
	}

	vals := map[string]any{}
	for k, v := range last.layer {
		vals[k] = v
	}
	vals["trace_overhead_s"] = noted{median(traced) - median(plain),
		fmt.Sprintf("traced %.4fs - untraced %.4fs makespan, medians of %d", median(traced), median(plain), len(traced))}
	if gcIters > 0 {
		vals["gc.alloc_mb_per_iter"] = float64(gcAlloc) / (1 << 20) / float64(gcIters)
	}
	vals["gc.cycles"] = float64(gcCycles) / float64(len(plain))
	vals["gc.pause_ms"] = float64(gcPause) / 1e6 / float64(len(plain))
	if len(b.spawns) > 0 {
		vals["proto.spawn_ms"] = median(b.spawns)
	}
	coreCounters(last, vals)
	layerCounters(last, lastTr, vals)
	shares := traceShares(w, last, lastTr, vals)
	spans := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, b.seed))
	if err := writeSpans(spans, lastTr); err != nil {
		return err
	}

	// The untraced repetitions' end-to-end figures come first, so one run
	// shows both.
	for _, m := range endToEnd(sums, setups, b) {
		fmt.Printf("%-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	var ms []metric
	for _, lm := range layerMetrics {
		m := metric{Name: lm[0], Unit: lm[1]}
		switch v := vals[lm[0]].(type) {
		case float64:
			m.Value = v
		case noted:
			m.Value, m.Note = v.v, v.note
		case ratio:
			m.Value, m.Note = v.Value(), v.String()
		case nil:
			m.Note = "n/a on this workload"
		}
		ms = append(ms, m)
		fmt.Printf("%-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	fmt.Printf("layer shares of self time (%s): %s\n", w.name, shares)
	if last.note != "" {
		fmt.Printf("  (%s)\n", last.note)
	}
	fmt.Printf("spans of the last traced repetition: %s\n", spans)
	for _, why := range b.fails.Reasons {
		fmt.Printf("FAILED: %s\n", why)
	}
	names := make([]string, len(layerMetrics))
	for i, lm := range layerMetrics {
		names[i] = lm[0]
	}
	return printResult(b, ms, names)
}

// writeSpans saves a traced repetition's spans, one JSON object per line;
// times are nanoseconds since the repetition's tracer started.
func writeSpans(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Name == "" {
			continue
		}
		if err := enc.Encode(s); err != nil {
			tr.mu.Unlock()
			f.Close()
			return err
		}
	}
	tr.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// coreCounters derives the engine's counters from the campaigns' Results.
func coreCounters(r *repOut, vals map[string]any) {
	var calls, unsat, skips, restarts, points, orders, deadlocks, iters int
	var pathLen, raw, logBytes int64
	seen := map[string]bool{}
	for _, c := range r.camps {
		if c.Err != nil || seen[c.Label] {
			continue
		}
		seen[c.Label] = true
		res := c.Result
		calls += res.SolverCall
		unsat += res.UnsatCalls
		skips += res.RefutedSkips
		restarts += res.Restarts
		points += res.Schedule.ChoicePoints
		orders += res.Schedule.Orders
		deadlocks += res.Schedule.Deadlocks
		iters += len(res.Iterations)
		for _, it := range res.Iterations {
			pathLen += int64(it.PathLen)
			raw += it.RawCount
			logBytes += int64(it.LogBytes)
		}
	}
	vals["core.solver_calls_per_iter"] = ratio{Num: float64(calls), Den: float64(iters), NumName: "solver calls", DenName: "iterations"}
	vals["core.sat_ratio"] = ratio{Num: float64(calls - unsat), Den: float64(calls), NumName: "SAT answers", DenName: "solver calls"}
	vals["core.refuted_skips"] = float64(skips)
	vals["core.restarts"] = float64(restarts)
	vals["core.sched_choice_points"] = float64(points)
	vals["core.sched_orders"] = float64(orders)
	vals["core.deadlocks"] = float64(deadlocks)
	if iters > 0 {
		vals["conc.log_kb_per_iter"] = float64(logBytes) / 1024 / float64(iters)
		vals["conc.path_len_mean"] = float64(pathLen) / float64(iters)
	}
	vals["conc.reduction_ratio"] = ratio{Num: float64(pathLen), Den: float64(raw), NumName: "PathLen", DenName: "RawCount"}
}

// layerCounters reads the wrapper counters, the solver service window and
// the profile of one traced repetition.
func layerCounters(r *repOut, tr *tracer, vals map[string]any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	prof := r.profRep
	if r.prof != nil {
		prof = r.prof.Report()
	}
	if len(tr.launches) > 0 {
		var busy float64
		for _, d := range tr.launches {
			busy += d
		}
		p50, _ := percentile(tr.launches, 50)
		p99, _ := percentile(tr.launches, 99)
		vals["mpi.launches"] = float64(len(tr.launches))
		vals["mpi.busy_s"] = busy / 1000
		vals["mpi.launch_ms_p50"] = p50
		vals["mpi.launch_ms_p99"] = p99
		vals["mpi.ranks_per_launch"] = float64(tr.ranks) / float64(len(tr.launches))
		vals["mpi.failed_launches"] = float64(tr.failedRuns)
	} else if bs, ok := prof.Get("execute"); ok {
		// No Launch seam on this workload (store-backed or fleet
		// campaigns): the engine's execute phase is the same interval.
		vals["mpi.launches"] = float64(bs.Count)
		vals["mpi.busy_s"] = bs.Total().Seconds()
	}
	if len(tr.solves) > 0 {
		var busy float64
		for _, d := range tr.solves {
			busy += d
		}
		p50, _ := percentile(tr.solves, 50)
		p99, _ := percentile(tr.solves, 99)
		vals["solver.calls"] = float64(len(tr.solves))
		vals["solver.busy_s"] = busy / 1e6
		vals["solver.call_us_p50"] = p50
		vals["solver.call_us_p99"] = p99
		vals["solver.preds_per_call"] = float64(tr.preds) / float64(len(tr.solves))
	} else if bs, ok := prof.Get("solve"); ok {
		vals["solver.calls"] = float64(bs.Count)
		vals["solver.busy_s"] = bs.Total().Seconds()
	}
	st := r.solver
	if st.Calls == 0 {
		for _, c := range r.runs {
			st = addStats(st, c.Solver)
		}
	}
	vals["solver.hit_rate"] = ratio{Num: float64(st.SATHits + st.UnsatHits), Den: float64(st.Calls), NumName: "cache hits", DenName: "service calls"}
	vals["solver.unsat_hits"] = float64(st.UnsatHits)
	vals["solver.live_solves"] = float64(st.Misses)
	var canon time.Duration
	for _, n := range []string{"cache-lookup", "solver.canon"} {
		if bs, ok := prof.Get(n); ok {
			canon += bs.Total()
		}
	}
	vals["expr.canon_s"] = canon.Seconds()
	if len(r.reportMS) > 0 {
		vals["store.report_ms_p50"] = median(r.reportMS)
		vals["store.report_ms_tail"] = tail(r.reportMS).Value
	}

	// Scheduler balance over the engine sessions this repetition ran.
	var sum, slowest time.Duration
	for _, res := range r.runs {
		el := lastElapsed(res)
		sum += el
		if el > slowest {
			slowest = el
		}
	}
	if r.wall > 0 && r.workers > 0 {
		vals["sched.utilization"] = ratio{Num: sum.Seconds(), Den: float64(r.workers) * r.wall.Seconds(),
			NumName: "sum of campaign elapsed", DenName: fmt.Sprintf("%d workers x makespan", r.workers), Unit: "s"}
		vals["sched.straggler_ratio"] = ratio{Num: slowest.Seconds(), Den: r.wall.Seconds(),
			NumName: "slowest campaign", DenName: "makespan", Unit: "s"}
	}
}

// traceShares attributes self time to layers, sets the share and core.self_s
// metrics, and flags a workload whose chosen layers no longer dominate.
func traceShares(w *workload, r *repOut, tr *tracer, vals map[string]any) string {
	tr.mu.Lock()
	self := layerSelf(tr.spans)
	tr.mu.Unlock()
	if _, hasLaunch := vals["mpi.launch_ms_p50"]; !hasLaunch && r.prof != nil {
		// Store-backed campaigns run without a Launch seam: move the
		// profiled execute phase from the iteration's self time to mpi.
		if bs, ok := r.prof.Report().Get("execute"); ok {
			self["core"] -= bs.Total()
			self["mpi"] += bs.Total()
		}
	}
	var total time.Duration
	for _, l := range shareLayers {
		total += self[l]
	}
	vals["core.self_s"] = self["core"].Seconds()
	var parts []string
	chosen, best := 0.0, 0.0
	for _, l := range shareLayers {
		sh := 0.0
		if total > 0 {
			sh = float64(self[l]) / float64(total)
		}
		vals["share."+l] = ratio{Num: self[l].Seconds(), Den: total.Seconds(), NumName: l + " self", DenName: "all self time", Unit: "s"}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", l, 100*sh))
		isChosen := false
		for _, c := range w.layers {
			if c == l {
				isChosen = true
			}
		}
		if isChosen {
			chosen += sh
		} else if sh > best {
			best = sh
		}
	}
	verdict := fmt.Sprintf("OK: %s hold %.1f%%", strings.Join(w.layers, "+"), 100*chosen)
	if chosen <= best {
		verdict = fmt.Sprintf("FLAG: %s hold only %.1f%%, another layer holds %.1f%%", strings.Join(w.layers, "+"), 100*chosen, 100*best)
	}
	return strings.Join(parts, ", ") + " -- " + verdict
}
