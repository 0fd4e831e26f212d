package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/binstat"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/solver"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/target"
	"repro/internal/targets/hpl"
	"repro/internal/targets/stencil"
	"repro/internal/targets/susy"
)

// Workload sizes. Each repetition of a workload is a few seconds at most, so
// one run of the benchmark measures several and reports their medians.
const (
	workers = 2 // closed loop: at most two campaigns in flight

	susyIters  = 30
	susyDimCap = 2

	hplCampaigns = 4
	hplIters     = 60

	storeSeeds  = 2
	storeShards = 2
	storeIters1 = 60  // first batch
	storeIters2 = 120 // resumed batch
	reportReps  = 50  // report queries per repetition

	fleetIters = 150
	schedNP    = 3
)

// workload is one set of campaigns the benchmark runs, with its set-up, its
// reference runs (outside the timed region) and one timed repetition.
type workload struct {
	name string
	// layers is what the workload was chosen to stress; the traced run
	// flags it when their combined self-time share is not the largest.
	layers []string
	setup  func(b *bench) (time.Duration, error)
	// prepare runs the current repetition's reference outside the timed
	// region: the outcomes the repetition is checked against, and the base
	// of the speed-up or overhead ratio.
	prepare func(b *bench) error
	run     func(b *bench, tr *tracer) (*repOut, error)
}

var workloads = []*workload{
	{name: "susy-deep", layers: []string{"core", "solver"}, setup: setupSusy, prepare: prepareSusy, run: runSusy},
	{name: "hpl-grid", layers: []string{"mpi"}, setup: setupHPL, prepare: prepareHPL, run: runHPL},
	{name: "store-resume", layers: []string{"store"}, setup: setupStore, prepare: prepareStore, run: runStore},
	{name: "fleet-mixed", layers: []string{"fleet", "proto"}, setup: setupFleet, prepare: prepareFleet, run: runFleet},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fixParams are the seeded-bug fixes the CLI's campaign modes apply.
func fixParams() map[string]int64 { return core.MergeParams(susy.FixAll(), stencil.FixAll()) }

// baseCampaign is the CLI's default campaign: COMPI strategy, 50-execution
// DFS phase, 8 initial processes capped at 16, reduction and framework on.
func baseCampaign(target string, seed int64, iters int) spec.Campaign {
	return spec.Campaign{
		Target:       target,
		Seed:         seed,
		Iterations:   iters,
		InitialProcs: 8,
		MaxProcs:     16,
		Reduction:    true,
		DFSPhase:     50,
		Framework:    true,
		RunTimeout:   30 * time.Second,
		Params:       fixParams(),
	}
}

// campaignSeeds derives n campaign seeds from the workload seed.
func campaignSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	x := uint64(seed)
	for i := range out {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		out[i] = int64(z%1_000_000) + 1
	}
	return out
}

// ---- susy-deep ----

func susySpec(seed int64) spec.Campaign {
	c := baseCampaign("susy-hmc", campaignSeeds(seed, 1)[0], susyIters)
	c.Params = core.MergeParams(c.Params, susy.CapParams(susyDimCap))
	return c
}

// setupSusy is what a single-campaign run pays before its first iteration:
// registry lookup, spec lowering, and engine plus private solver
// construction.
func setupSusy(b *bench) (time.Duration, error) {
	start := time.Now()
	cfg, err := engineConfig(susySpec(b.cur))
	if err != nil {
		return 0, err
	}
	core.NewEngine(cfg)
	return time.Since(start), nil
}

// prepareSusy runs the same campaign once more, untimed: the engine is
// deterministic in its seed, so the timed run must reproduce it.
func prepareSusy(b *bench) error {
	sp := susySpec(b.cur)
	cfg, err := engineConfig(sp)
	if err != nil {
		return err
	}
	b.refs = map[string]outcome{sp.DisplayLabel(): outcomeOf(core.NewEngine(cfg).Run())}
	return nil
}

func runSusy(b *bench, tr *tracer) (*repOut, error) {
	sp := susySpec(b.cur)
	cfg, err := engineConfig(sp)
	if err != nil {
		return nil, err
	}
	out := &repOut{}
	var ct *campTrace
	var endBatch func()
	if tr != nil {
		var batch int
		batch, endBatch = tr.root("batch", "sched")
		ct = tr.campaign(batch)
		out.prof = binstat.New()
		svc := solver.NewService(solver.ServiceConfig{Profiler: out.prof})
		cfg.Solver = &timedSolver{inner: svc, c: ct}
		cfg.Backend = newTimedBackend(cfg.Program, ct)
		cfg.Profiler = out.prof
		cfg.Trace = ct.iterDone
	}
	start := time.Now()
	res := core.NewEngine(cfg).Run()
	out.wall = time.Since(start)
	if tr != nil {
		ct.finish()
		endBatch()
	}
	out.add(sp.DisplayLabel(), sp.Target, res, nil)
	out.workers = 1
	return out, nil
}

// ---- hpl-grid ----

func hplSpecs(seed int64) []sched.Spec {
	var specs []sched.Spec
	for _, s := range campaignSeeds(seed, hplCampaigns) {
		c := baseCampaign("hpl", s, hplIters)
		c.Params = core.MergeParams(c.Params, hpl.CapParams(hpl.DefaultNCap))
		specs = append(specs, sched.Spec{Campaign: c})
	}
	return specs
}

// setupHPL is the batch's set-up: registry lookups, spec lowering and the
// shared solver service.
func setupHPL(b *bench) (time.Duration, error) {
	start := time.Now()
	for _, sp := range hplSpecs(b.cur) {
		if _, err := engineConfig(sp.Campaign); err != nil {
			return 0, err
		}
	}
	solver.NewService(solver.ServiceConfig{})
	return time.Since(start), nil
}

// prepareHPL runs the serial reference: one worker, same specs.
func prepareHPL(b *bench) error {
	rep := sched.Run(hplSpecs(b.cur), sched.Options{Workers: 1})
	b.refWall = rep.Elapsed
	b.refName = "serial makespan"
	return b.setRefs(rep.Campaigns)
}

func runHPL(b *bench, tr *tracer) (*repOut, error) {
	specs := hplSpecs(b.cur)
	out := &repOut{workers: workers}
	opt := sched.Options{Workers: workers}
	var endBatch func()
	if tr != nil {
		var batch int
		batch, endBatch = tr.root("batch", "sched")
		out.prof = binstat.New()
		svc := solver.NewService(solver.ServiceConfig{Profiler: out.prof})
		opt.Solver = svc
		opt.Profiler = out.prof
		camps := map[string]*campTrace{}
		for i := range specs {
			prog, ok := target.Lookup(specs[i].Target)
			if !ok {
				return nil, fmt.Errorf("unknown target %q", specs[i].Target)
			}
			ct := tr.campaign(batch)
			camps[specs[i].DisplayLabel()] = ct
			specs[i].Overrides.Backend = newTimedBackend(prog, ct)
			specs[i].Overrides.Solver = &timedSolver{inner: svc, c: ct}
		}
		opt.Trace = func(label string, it core.IterationStat) { camps[label].iterDone(it) }
		defer func() {
			for _, ct := range camps {
				ct.finish()
			}
			endBatch()
		}()
	}
	rep := sched.Run(specs, opt)
	out.wall = rep.Elapsed
	out.solver = rep.Solver
	for _, c := range rep.Campaigns {
		out.add(c.Label, c.Target, c.Result, c.Err)
	}
	out.set("sched.speedup", ratio{Num: durMS(b.refWall), Den: durMS(rep.Elapsed),
		NumName: b.refName, DenName: "2-worker makespan", Unit: "ms"})
	return out, nil
}

// ---- store-resume ----

func storeSpecs(seed int64, iters int) []sched.Spec {
	var specs []sched.Spec
	for _, t := range []string{"skeleton", "stencil"} {
		for _, s := range campaignSeeds(seed, storeSeeds) {
			for _, c := range spec.Shard(baseCampaign(t, s, iters), storeShards) {
				specs = append(specs, sched.Spec{Campaign: c})
			}
		}
	}
	return specs
}

// setupStore is what a resumed store-backed batch pays before its first
// campaign: reopening the store and importing its UNSAT cache into a new
// solver service. The store it reopens is filled once, outside the clock,
// by one checkpointed batch.
func setupStore(b *bench) (time.Duration, error) {
	if b.setupStore == "" {
		dir := filepath.Join(b.dir, "setup-store")
		st, err := store.Open(dir)
		if err != nil {
			return 0, err
		}
		sched.Run(storeSpecs(b.cur, storeIters1), sched.Options{Workers: workers, Store: st})
		if err := st.Close(); err != nil {
			return 0, err
		}
		b.setupStore = dir
	}
	start := time.Now()
	st, err := store.Open(b.setupStore)
	if err != nil {
		return 0, err
	}
	if _, err := st.LoadSolverCacheInto(solver.NewService(solver.ServiceConfig{})); err != nil {
		st.Close()
		return 0, err
	}
	d := time.Since(start)
	return d, st.Close()
}

// prepareStore runs the storeless reference at the final budget.
func prepareStore(b *bench) error {
	rep := sched.Run(storeSpecs(b.cur, storeIters2), sched.Options{Workers: workers})
	b.refWall = rep.Elapsed
	b.refName = "storeless makespan"
	return b.setRefs(rep.Campaigns)
}

// runStore is one store life cycle: a checkpointed batch, a resumed batch at
// twice the budget, a re-run that reattaches every campaign from the store,
// the report queries, and one Minimize and Reindex.
func runStore(b *bench, tr *tracer) (*repOut, error) {
	dir, err := os.MkdirTemp(b.dir, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "s"))
	if err != nil {
		return nil, err
	}
	defer st.Close()

	out := &repOut{workers: workers}
	var batch int
	var endBatch func()
	if tr != nil {
		batch, endBatch = tr.root("batch", "sched")
		out.prof = binstat.New()
	}
	storeCall := func(name string, f func() error) (time.Duration, error) {
		var s time.Duration
		if tr != nil {
			s = tr.now()
		}
		start := time.Now()
		err := f()
		d := time.Since(start)
		if tr != nil {
			tr.timed(name, "store", batch, s)
		}
		return d, err
	}

	runBatch := func(iters int) *sched.Report {
		specs := storeSpecs(b.cur, iters)
		opt := sched.Options{Workers: workers, Store: st, CheckpointEvery: 1}
		if tr == nil {
			return sched.Run(specs, opt)
		}
		svc := solver.NewService(solver.ServiceConfig{Profiler: out.prof})
		opt.Solver = svc
		opt.Profiler = out.prof
		camps := map[string]*campTrace{}
		var last sync.Map // label → time of the latest Trace callback
		for i := range specs {
			ct := tr.campaign(batch)
			label := specs[i].DisplayLabel()
			camps[label] = ct
			specs[i].Overrides.Solver = &timedSolver{inner: svc, c: ct}
			// The store wraps this callback: it runs right after the
			// checkpoint write, which started when the engine's Trace
			// callback returned.
			specs[i].Overrides.Checkpoint = func(*core.Snapshot) {
				if s, ok := last.Load(label); ok {
					ct.call("SaveCampaign", "store", s.(time.Duration))
				}
			}
		}
		opt.Trace = func(label string, it core.IterationStat) {
			camps[label].iterDone(it)
			last.Store(label, tr.now())
		}
		rep := sched.Run(specs, opt)
		for _, ct := range camps {
			ct.finish()
		}
		return rep
	}

	start := time.Now()
	rep1 := runBatch(storeIters1)
	rep2 := runBatch(storeIters2)
	rep3 := runBatch(storeIters2)
	var lastIdx []store.IndexEntry
	var indexMS []float64
	for i := 0; i < reportReps; i++ {
		var indexD time.Duration
		d, err := storeCall("report", func() error {
			start := time.Now()
			idx, err := st.Index()
			indexD = time.Since(start)
			if err != nil {
				return err
			}
			store.SetupsWithError(idx, "")
			store.ByTarget(idx)
			lastIdx = idx
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("report query: %w", err)
		}
		out.reportMS = append(out.reportMS, durMS(d))
		indexMS = append(indexMS, durMS(indexD))
	}
	minD, err := storeCall("Minimize", func() error { _, err := st.Minimize(); return err })
	if err != nil {
		return nil, fmt.Errorf("minimize: %w", err)
	}
	reD, err := storeCall("Reindex", func() error { _, err := st.Reindex(); return err })
	if err != nil {
		return nil, fmt.Errorf("reindex: %w", err)
	}
	out.wall = time.Since(start)

	for _, r := range []*sched.Report{rep1, rep2} {
		for _, c := range r.Campaigns {
			its := c.Result.Iterations
			if r == rep2 && len(its) >= storeIters1 {
				// Only the iterations this session executed.
				c.Result.Iterations = its[storeIters1:]
			}
			out.addRun(c.Result, c.Err)
		}
	}
	for _, r := range []*sched.Report{rep2, rep3} {
		for _, c := range r.Campaigns {
			out.gate(c.Label, c.Target, c.Result, c.Err)
		}
	}
	reused := 0
	for _, c := range rep3.Campaigns {
		if c.Reused {
			reused++
		}
	}
	if len(lastIdx) != len(rep3.Campaigns) {
		out.fail("store index has %d entries for %d campaigns", len(lastIdx), len(rep3.Campaigns))
	}

	if tr != nil {
		endBatch()
		out.set("store.index_ms", median(indexMS))
		out.set("store.minimize_ms", durMS(minD))
		out.set("store.reindex_ms", durMS(reD))
		svc := solver.NewService(solver.ServiceConfig{})
		d, err := storeCall("LoadSolverCacheInto", func() error { _, err := st.LoadSolverCacheInto(svc); return err })
		if err != nil {
			return nil, fmt.Errorf("cache load: %w", err)
		}
		out.set("store.cache_load_ms", durMS(d))
		out.set("store.reused", float64(reused))
		out.set("store.warm_unsat", float64(rep2.WarmUnsat))
		out.set("store.checkpoint_writes", float64(countSpans(tr, "SaveCampaign")))
		bytes := dirSize(st.Dir())
		out.set("store.bytes_on_disk", float64(bytes))
		if names, err := st.Campaigns(); err == nil && len(names) > 0 {
			var total int64
			for _, n := range names {
				if fi, err := os.Stat(filepath.Join(st.Dir(), "campaigns", n+".json")); err == nil {
					total += fi.Size()
				}
			}
			out.set("store.snapshot_kb_mean", float64(total)/1024/float64(len(names)))
		}
		out.set("store.overhead_ratio", ratio{Num: durMS(rep1.Elapsed + rep2.Elapsed), Den: durMS(b.refWall),
			NumName: "store-backed makespan (first + resumed batch)", DenName: b.refName, Unit: "ms"})
		out.solver = rep1.Solver
		out.solver = addStats(out.solver, rep2.Solver)
	}
	return out, nil
}

func addStats(a, b solver.Stats) solver.Stats {
	return solver.Stats{Calls: a.Calls + b.Calls, SATHits: a.SATHits + b.SATHits, UnsatHits: a.UnsatHits + b.UnsatHits,
		Misses: a.Misses + b.Misses, Evicted: a.Evicted + b.Evicted, LiveTime: a.LiveTime + b.LiveTime}
}

func countSpans(tr *tracer, name string) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := 0
	for _, s := range tr.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (bytes int64) {
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			bytes += fi.Size()
		}
		return nil
	})
	return bytes
}

// ---- fleet-mixed ----

// Labels of fleet-mixed's pipe-backed campaign and its in-process twin,
// which must reach the same outcome.
const (
	twinLabel = "stencil-twin"
	pipeLabel = "stencil-pipe"
)

func fleetSpecs(b *bench) []sched.Spec {
	seeds := campaignSeeds(b.cur, 4)
	var specs []sched.Spec
	for _, t := range []string{"mworder", "relay"} {
		for _, s := range seeds[:2] {
			c := baseCampaign(t, s, fleetIters)
			c.Schedules = true
			c.InitialProcs, c.MaxProcs = schedNP, schedNP
			specs = append(specs, sched.Spec{Campaign: c})
		}
	}
	specs = append(specs, sched.Spec{Campaign: baseCampaign("skeleton", seeds[2], fleetIters)})
	specs = append(specs, sched.Spec{Campaign: baseCampaign("stencil", seeds[3], fleetIters)})
	twin := baseCampaign("stencil", seeds[2], fleetIters)
	twin.Label = twinLabel
	pipe := twin
	pipe.Label = pipeLabel
	pipe.External = &spec.External{Bin: b.self, Args: []string{serveTargetArg, "stencil"}}
	return append(specs, sched.Spec{Campaign: twin}, sched.Spec{Campaign: pipe})
}

// setupFleet is the fleet's set-up: coordinator listen, two worker
// handshakes and one pipe-target spawn. The set-up coordinator holds one
// trivial campaign, drained after the clock stops so nothing outlives it.
func setupFleet(b *bench) (time.Duration, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	coord := fleet.NewCoordinator([]sched.Spec{{Campaign: baseCampaign("skeleton", 1, 1)}}, fleet.Options{})
	served := make(chan error, 1)
	go func() { served <- coord.Serve(ln) }()
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for i := 0; i < workers; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return 0, err
		}
		conns = append(conns, conn)
		if err := fleet.WriteFrame(conn, fleet.Frame{Type: fleet.FrameHello, Hello: &fleet.Hello{Proto: fleet.Version, Name: "setup"}}); err != nil {
			return 0, err
		}
		if f, err := fleet.ReadFrame(conn); err != nil || f.Type != fleet.FrameWelcome {
			return 0, fmt.Errorf("fleet handshake: %v", err)
		}
	}
	spawn := time.Now()
	drv, err := proto.Start(b.self, proto.Options{Args: []string{serveTargetArg, "stencil"}})
	if err != nil {
		return 0, err
	}
	b.spawns = append(b.spawns, durMS(time.Since(spawn)))
	d := time.Since(start)
	if err := drv.Close(); err != nil {
		return 0, fmt.Errorf("pipe target: %w", err)
	}
	if err := fleet.Work(ln.Addr().String(), fleet.WorkerOptions{Name: "setup-drain"}); err != nil {
		return 0, err
	}
	coord.Wait()
	if err := <-served; err != nil {
		return 0, err
	}
	return d, nil
}

// prepareFleet runs the same specs through sched.Run, the fleet's
// single-process reference.
func prepareFleet(b *bench) error {
	rep := sched.Run(fleetSpecs(b), sched.Options{Workers: workers})
	b.refWall = rep.Elapsed
	b.refName = "sched.Run makespan"
	return b.setRefs(rep.Campaigns)
}

func runFleet(b *bench, tr *tracer) (*repOut, error) {
	specs := fleetSpecs(b)
	out := &repOut{workers: workers}
	var reclaims int
	var mu sync.Mutex
	opt := fleet.Options{Logf: func(format string, args ...any) {
		if strings.HasPrefix(format, "fleet: reclaiming") {
			mu.Lock()
			reclaims++
			mu.Unlock()
		}
	}}
	var batch int
	var endBatch func()
	if tr != nil {
		batch, endBatch = tr.root("batch", "fleet")
		opt.Profile = true
	}
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	coord := fleet.NewCoordinator(specs, opt)
	served := make(chan error, 1)
	go func() { served <- coord.Serve(ln) }()
	addr := ln.Addr().String()
	var rl *relay
	if tr != nil {
		if rl, err = startRelay(addr, tr, batch); err != nil {
			ln.Close()
			return nil, err
		}
		addr = rl.addr()
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fleet.Work(addr, fleet.WorkerOptions{Name: fmt.Sprintf("w%d", i)})
		}(i)
	}
	rep := coord.Wait()
	out.wall = time.Since(start)
	wg.Wait()
	if err := <-served; err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var pipe, twin *sched.Campaign
	for i, c := range rep.Campaigns {
		out.add(c.Label, c.Target, c.Result, c.Err)
		switch c.Label {
		case pipeLabel:
			pipe = &rep.Campaigns[i]
		case twinLabel:
			twin = &rep.Campaigns[i]
		}
	}
	if pipe == nil || twin == nil {
		return nil, fmt.Errorf("fleet report lacks the pipe-backed campaign or its twin")
	}
	if outcomeOf(pipe.Result) != outcomeOf(twin.Result) {
		out.fail("pipe-backed campaign differs from its in-process twin")
	}
	for i := 0; i < reclaims; i++ {
		out.fail("lease reclaimed")
	}
	if tr == nil {
		return out, nil
	}
	rl.close()
	endBatch()
	out.set("fleet.reclaims", float64(reclaims))
	out.set("fleet.overhead_ratio", ratio{Num: durMS(out.wall), Den: durMS(b.refWall),
		NumName: "fleet makespan", DenName: b.refName, Unit: "ms"})
	out.set("proto.overhead_ratio", ratio{Num: durMS(lastElapsed(pipe.Result)), Den: durMS(lastElapsed(twin.Result)),
		NumName: "pipe-backed campaign", DenName: "in-process twin", Unit: "ms"})
	rl.mu.Lock()
	defer rl.mu.Unlock()
	out.set("fleet.frames_up", float64(rl.framesUp))
	out.set("fleet.bytes_up", float64(rl.bytesUp))
	out.set("fleet.bytes_down", float64(rl.bytesDown))
	// Fleet workers expose no per-call seam, so each lease the relay saw,
	// from grant to complete frame, is split by the phase profile its
	// complete frame carries. The twin runs the pipe-backed lease's launches
	// in-process, in the same run.
	var twinExec time.Duration
	for _, l := range rl.leases {
		if l.Label == twinLabel && l.End != 0 {
			if bs, ok := l.Profile.Get("execute"); ok {
				twinExec = bs.Total()
			}
		}
	}
	for _, l := range rl.leases {
		if l.End != 0 {
			addLease(tr, batch, l, twinExec)
		}
	}
	out.note = "fleet-mixed: each lease is split by its engine's measured phase bins; " +
		"fleet is the lease time beyond them, proto the pipe lease's execute time beyond its twin's"
	out.set("fleet.leases", float64(len(rl.leases)))
	out.set("fleet.handshake_ms", median(rl.handshakes))
	if out.iters > 0 {
		out.set("fleet.bytes_per_iter", float64(rl.bytesUp+rl.bytesDown)/float64(out.iters))
	}
	out.prof = nil
	out.profRep = rep.Profile
	return out, nil
}

// addLease records a finished lease as a fleet span under parent, with one
// child span per engine phase of its profile (absolute bin times) laid end to
// end from the lease's start and clamped to its end. The lease's self time,
// beyond those bins, is the fleet's: lease set-up, merge and progress frames
// written from the engine's callbacks, renewals. Of the pipe-backed lease's
// execute time, the part beyond twinExec is the pipe protocol's.
func addLease(tr *tracer, parent int, l *leaseTrace, twinExec time.Duration) {
	lid := tr.add(span{Name: "lease", Layer: "fleet", Campaign: -1, Parent: parent, Start: l.Start, End: l.End})
	at := l.Start
	child := func(name, layer string, d time.Duration) {
		if d <= 0 || at >= l.End {
			return
		}
		end := min(at+d, l.End)
		tr.add(span{Name: name, Layer: layer, Campaign: -1, Parent: lid, Start: at, End: end})
		at = end
	}
	for _, ph := range phaseSplit(l.Profile) {
		if l.External && ph.name == "execute" {
			pipe := min(max(ph.d-twinExec, 0), ph.d)
			child("pipe", "proto", pipe)
			child("execute", "mpi", ph.d-pipe)
			continue
		}
		child(ph.name, ph.layer, ph.d)
	}
}

func lastElapsed(r core.Result) time.Duration {
	if n := len(r.Iterations); n > 0 {
		return r.Iterations[n-1].Elapsed
	}
	return r.Elapsed
}

type phase struct {
	name, layer string
	d           time.Duration
}

// phaseSplit maps an engine profile onto layers: execute is mpi, solve is
// the solver, every other engine phase is core.
func phaseSplit(r binstat.Report) []phase {
	var out []phase
	var coreD time.Duration
	for _, bs := range r {
		switch {
		case bs.Name == "execute":
			out = append(out, phase{"execute", "mpi", bs.Total()})
		case bs.Name == "solve":
			out = append(out, phase{"solve", "solver", bs.Total()})
		case strings.HasPrefix(bs.Name, "solver."):
			// nested inside solve
		default:
			coreD += bs.Total()
		}
	}
	return append(out, phase{"engine", "core", coreD})
}
