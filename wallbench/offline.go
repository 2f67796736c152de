package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"jaws/internal/bench"
	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/experiments"
	"jaws/internal/fault"
	"jaws/internal/job"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/store"
)

// committedArtifact is the baseline every offline-fig8 artifact must
// reproduce byte for byte.
const committedArtifact = "BENCH_main.json"

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 9

func storeConfig(s experiments.Scale) store.Config {
	return store.Config{Space: s.Space, Steps: s.Steps, SampleSide: s.SampleSide, Seed: s.Seed}
}

// offlineSetup times what an artifact needs before its engine runs:
// store open, cache build and workload generation.
func offlineSetup(s experiments.Scale) (setup, open, gen []float64, err error) {
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		dOpen := timeIt(func() { _, err = store.Open(storeConfig(s)) })
		if err != nil {
			return nil, nil, nil, err
		}
		cache.New(s.CacheAtoms, cache.NewLRUK(2, 0))
		dGen := timeIt(func() { experiments.FreshJobs(s, 1) })
		setup = append(setup, time.Since(t0).Seconds())
		open = append(open, dOpen.Seconds())
		gen = append(gen, dGen.Seconds())
	}
	return setup, open, gen, nil
}

// productArtifact is the untraced product: exactly jawsbench -bench-out.
func productArtifact(s experiments.Scale) ([]byte, int, error) {
	a, err := bench.Run(s, "jaws2")
	if err != nil {
		return nil, 0, err
	}
	b, err := a.Encode()
	return b, a.Completed, err
}

func runOffline(o options) (*outcome, error) {
	want, err := os.ReadFile(filepath.Join(o.root, committedArtifact))
	if err != nil {
		return nil, err
	}
	return offline(o, experiments.DefaultScale(), want)
}

// offline measures artifacts at scale s, each of which must encode to
// want.
func offline(o options, s experiments.Scale, want []byte) (*outcome, error) {
	setup, open, gen, err := offlineSetup(s)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceOffline(o, s, want, median(open), median(gen))
	}

	runtime.GC()
	m := startMeter()
	deadline := time.Now().Add(o.seconds)
	var walls []time.Duration
	ok, queries := 0, 0
	for len(walls) == 0 || time.Now().Before(deadline) {
		t0 := time.Now()
		b, completed, err := productArtifact(s)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0))
		queries += completed
		if bytes.Equal(b, want) {
			ok++
		} else {
			fmt.Fprintf(o.log, "artifact %d differs from the committed one\n", len(walls))
		}
	}
	cost := m.stop()

	ms := sortedCopy(durationsMS(walls))
	p50 := median(ms)
	fmt.Fprintf(o.log, "artifacts       %d, wall p50 %.1f ms, min %.1f ms, max %.1f ms\n",
		len(walls), p50, ms[0], ms[len(ms)-1])
	fmt.Fprintf(o.log, "host steal      %.1f%% of CPU time during the measured phase\n", 100*cost.StealFrac)
	return &outcome{
		correct:   ok == len(walls),
		attempted: len(walls),
		failed:    len(walls) - ok,
		metrics: map[string]float64{
			"setup_s":        median(setup),
			"qps":            float64(queries) / float64(len(walls)) / (p50 / 1e3),
			"p50_ms":         p50,
			"cpu_ms_per_q":   float64(cost.CPU) / float64(time.Millisecond) / float64(queries),
			"alloc_kb_per_q": float64(cost.AllocBytes) / 1024 / float64(queries),
			"peak_heap_mb":   float64(cost.PeakLive) / (1 << 20),
			"ok_frac":        float64(ok) / float64(len(walls)),
		},
	}, nil
}

// tracedRun is one instrumented engine run over the fig8 workload.
type tracedRun struct {
	report *engine.Report
	sched  *timedSched
	runS   float64
}

// engineRun assembles the engine exactly as experiments.RunAlgorithm
// does for JAWS2, with the scheduler behind the timing decorator, and
// times Run.
func engineRun(s experiments.Scale, jobs []*job.Job, ob *obs.Obs, tr *tracer, parent int) (*tracedRun, error) {
	st, err := store.Open(storeConfig(s))
	if err != nil {
		return nil, err
	}
	c := cache.New(s.CacheAtoms, cache.NewLRUK(2, 0))
	inner := sched.NewJAWS(sched.JAWSConfig{
		Cost:         s.Cost,
		BatchSize:    s.BatchSize,
		InitialAlpha: 0.5,
		Adaptive:     true,
		Resident:     c.Contains,
	})
	sc, ts, err := wrapSched(inner, tr)
	if err != nil {
		return nil, err
	}
	e, err := engine.New(engine.Config{
		Store:     st,
		Cache:     c,
		Sched:     sc,
		Cost:      s.Cost,
		JobAware:  true,
		RunLength: s.RunLength,
		Obs:       ob,
		Fault:     fault.New(s.FaultSpec, s.FaultSeed, 0),
	})
	if err != nil {
		return nil, err
	}
	var rep *engine.Report
	d := tr.time("engine.run", parent, func() { rep, err = e.Run(jobs) })
	if err != nil {
		return nil, err
	}
	return &tracedRun{report: rep, sched: ts, runS: d.Seconds()}, nil
}

// tracedArtifact is the product rebuilt from the layers' public
// functions, with a span around each call; its bytes must equal the
// product's.
type tracedArtifact struct {
	bytes   []byte
	run     *tracedRun
	jobs    []*job.Job
	spans   int
	records int
	causesS float64
	wallS   float64 // the whole artifact, generation to encode
}

func buildTraced(s experiments.Scale, tr *tracer) (*tracedArtifact, error) {
	t0 := time.Now()
	root := tr.begin("offline.artifact", 0)
	defer tr.end(root)
	var jobs []*job.Job
	tr.time("workload.generate", root, func() { jobs = experiments.FreshJobs(s, 1) })
	agg := obs.NewSpanAgg()
	rec := obs.NewFlightRecorder(-1, nil, nil)
	r, err := engineRun(s, jobs, &obs.Obs{Spans: agg, Flight: rec}, tr, root)
	if err != nil {
		return nil, err
	}
	a := distill(s, r.report, agg)
	records := rec.Records()
	d := tr.time("obs.causes", root, func() {
		a.WaitCauses = obs.CauseBreakdown(agg.Spans(), obs.NewDecisionIndex(records))
	})
	var b []byte
	tr.time("bench.encode", root, func() { b, err = a.Encode() })
	if err != nil {
		return nil, err
	}
	return &tracedArtifact{
		bytes: b, run: r, jobs: jobs,
		spans: agg.Count(), records: len(records), causesS: d.Seconds(),
		wallS: time.Since(t0).Seconds(),
	}, nil
}

// distill fills the artifact from the report and spans as bench.Run does.
func distill(s experiments.Scale, rep *engine.Report, agg *obs.SpanAgg) *bench.Artifact {
	scenario := s.Scenario
	if scenario == "" {
		scenario = "fig8"
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	sum := agg.Summarize(0)
	a := &bench.Artifact{
		Version: bench.ArtifactVersion,
		Name:    "jaws2",
		Config: bench.ConfigRecord{
			GridSide:       s.Space.GridSide,
			AtomSide:       s.Space.AtomSide,
			Steps:          s.Steps,
			Seed:           s.Seed,
			Jobs:           s.Jobs,
			PointsPerQuery: s.PointsPerQuery,
			QueryScale:     s.QueryScale,
			CacheAtoms:     s.CacheAtoms,
			BatchSize:      s.BatchSize,
			RunLength:      s.RunLength,
			TbMillis:       s.Cost.Tb.Milliseconds(),
			TmMicros:       s.Cost.Tm.Microseconds(),
			Algorithm:      experiments.AlgJAWS2.String(),
			Scenario:       scenario,
			Policy:         s.TailPolicy,
		},
		Completed:      rep.Completed,
		ElapsedSec:     rep.Elapsed.Seconds(),
		ThroughputQPS:  rep.ThroughputQPS,
		MeanResponseMS: ms(sum.Mean),
		P50ResponseMS:  ms(sum.P50),
		P90ResponseMS:  ms(sum.P90),
		P95ResponseMS:  ms(sum.P95),
		P99ResponseMS:  ms(sum.P99),
		MaxResponseMS:  ms(sum.Max),
		CacheHitRate:   rep.CacheStats.HitRatio(),
		DiskReads:      rep.DiskStats.Reads,
		DiskSeqReads:   rep.DiskStats.SeqReads,
		DiskBytes:      rep.DiskStats.Bytes,
		GateBlocked:    sum.Blocked,
	}
	if sum.Count > 0 {
		n := time.Duration(sum.Count)
		a.Phases = bench.PhaseMeans{
			GatedMS:    ms(sum.Phases.Gated / n),
			QueuedMS:   ms(sum.Phases.Queued / n),
			OverheadMS: ms(sum.Phases.Overhead / n),
			DiskMS:     ms(sum.Phases.Disk / n),
			ComputeMS:  ms(sum.Phases.Compute / n),
		}
	}
	return a
}

// traceOffline alternates untraced and traced artifacts for the measured
// time, checks that both reproduce the committed bytes, then replays the
// run's inputs through single layers.
func traceOffline(o options, s experiments.Scale, want []byte, openS, genS float64) (*outcome, error) {
	tr := newTracer()
	var uCPU, tCPU []float64
	var last *tracedArtifact
	var gc phaseCost
	ok, pairs := 0, 0
	deadline := time.Now().Add(o.seconds)
	for pairs == 0 || time.Now().Before(deadline) {
		pairs++
		runtime.GC()
		m := startMeter()
		b, completed, err := productArtifact(s)
		if err != nil {
			return nil, err
		}
		uCPU = append(uCPU, float64(m.stop().CPU)/float64(completed))

		runtime.GC()
		m = startMeter()
		t, err := buildTraced(s, tr)
		if err != nil {
			return nil, err
		}
		gc = m.stop()
		tCPU = append(tCPU, float64(gc.CPU)/float64(t.run.report.Completed))
		last = t
		switch {
		case !bytes.Equal(b, want):
			fmt.Fprintf(o.log, "untraced artifact %d differs from the committed one\n", pairs)
		case !bytes.Equal(t.bytes, b):
			fmt.Fprintf(o.log, "traced artifact %d differs from the untraced one\n", pairs)
		default:
			ok++
		}
	}

	// Flight recorder off, all else equal: its cost is the difference.
	agg := obs.NewSpanAgg()
	off, err := engineRun(s, experiments.FreshJobs(s, 1), &obs.Obs{Spans: agg}, nil, 0)
	if err != nil {
		return nil, err
	}
	flightS := last.run.runS - off.runS

	replay := tr.begin("replay", 0)
	var qs []*query.Query
	for _, j := range last.jobs {
		qs = append(qs, j.Queries...)
	}
	sqs, preS, err := replayPreprocess(tr, replay, qs, s.Space)
	if err != nil {
		return nil, err
	}
	admits, admitS, err := replayAdmission(tr, replay, experiments.FreshJobs(s, 1), s.Space)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(storeConfig(s))
	if err != nil {
		return nil, err
	}
	readUS, interpNS, err := readInterpCost(tr, replay, st, sqs, o.seed, 256)
	if err != nil {
		return nil, err
	}
	tr.end(replay)

	rep := last.run.report
	ts := last.run.sched
	storeBusy := float64(rep.DiskStats.Reads) * readUS / 1e6
	schedBusy := (ts.decideTime + ts.enqueueTime).Seconds()
	met := layerMetrics{
		"workload.generate_s":      genS,
		"store.open_s":             openS,
		"store.reads":              float64(rep.DiskStats.Reads),
		"store.read_us":            readUS,
		"store.busy_s":             storeBusy,
		"cache.hit_rate":           rep.CacheStats.HitRatio(),
		"cache.misses":             float64(rep.CacheStats.Misses),
		"query.preprocess_calls":   float64(len(qs)),
		"query.preprocess_s":       preS.Seconds(),
		"jobgraph.admit_calls":     float64(admits),
		"jobgraph.admit_s":         admitS.Seconds(),
		"jobgraph.admit_share":     admitS.Seconds() / last.run.runS,
		"jobgraph.gating_admitted": float64(rep.GatingAdmitted),
		"jobgraph.gating_rejected": float64(rep.GatingRejected),
		"field.interp_ns":          interpNS,
		"engine.run_s":             last.run.runS,
		"engine.self_s":            last.run.runS - storeBusy - preS.Seconds() - admitS.Seconds() - schedBusy - flightS,
		"obs.flight_records":       float64(last.records),
		"obs.flight_s":             flightS,
		"obs.flight_share":         flightS / last.run.runS,
		"obs.spans":                float64(last.spans),
		"obs.causes_s":             last.causesS,
		"obs.causes_share":         last.causesS / last.wallS,
		"runtime.gc_cycles":        float64(gc.GCCycles),
		"runtime.gc_pause_ms":      float64(gc.GCPause) / float64(time.Millisecond),
		"trace.overhead_frac":      median(tCPU)/median(uCPU) - 1,
	}
	met.addSched(ts)
	met.zero(serverLayerMetrics...)
	met.zero("field.interp_points", "engine.session_ms_p50", "engine.session_ms_p99",
		"loadgen.sent", "loadgen.tail_ms", "loadgen.late_p99_ms")
	return &outcome{
		correct:   ok == pairs,
		attempted: 2 * pairs,
		failed:    pairs - ok,
		metrics:   met,
		tracer:    tr,
	}, nil
}

// layerMetrics collects a traced run's per-layer metrics.
type layerMetrics map[string]float64

// addSched records the scheduler decorator's counters.
func (m layerMetrics) addSched(ts ...*timedSched) {
	var decisions, enqueues, atoms int64
	var decide, enqueue time.Duration
	for _, t := range ts {
		decisions += t.decisions
		enqueues += t.enqueues
		atoms += t.atoms
		decide += t.decideTime
		enqueue += t.enqueueTime
	}
	m["sched.decisions"] = float64(decisions)
	m["sched.enqueues"] = float64(enqueues)
	m["sched.busy_s"] = (decide + enqueue).Seconds()
	m["sched.decision_ns"] = 0
	m["sched.atoms_per_decision"] = 0
	if decisions > 0 {
		m["sched.decision_ns"] = float64(decide) / float64(decisions)
		m["sched.atoms_per_decision"] = float64(atoms) / float64(decisions)
	}
}

// zero marks layers the workload does not exercise.
func (m layerMetrics) zero(names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}

var serverLayerMetrics = []string{
	"server.requests", "server.served", "server.shed", "server.timeouts", "server.errors",
	"server.validate_ms", "server.queued_ms", "server.dispatch_ms", "server.execute_ms", "server.write_ms",
	"server.validate_share", "server.queued_share", "server.dispatch_share", "server.execute_share", "server.write_share",
}
