package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"jaws"
	"jaws/internal/cache"
	"jaws/internal/engine"
	"jaws/internal/fault"
	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/sched"
	"jaws/internal/server"
	"jaws/internal/store"
	"jaws/internal/workload"
)

// The serving stack's fixed shape: two replicas of a 64³ grid in 32³
// atoms over 4 steps of the seed-1 field, behind a 2-worker server,
// loaded over 2 connections, one per core of the 2-core host the
// workloads were sized on.
const (
	serveGrid    = 64
	serveAtom    = 32
	serveSteps   = 4
	serveField   = 1
	serveNodes   = 2
	serveWorkers = 2
	serveConns   = 2
	serveKernel  = "lag4"
	coordMax     = 6.28
	// checkEvery: one request in checkEvery (seeded), up to checkKeep
	// of them, has its served values recomputed independently after the
	// run; the cap keeps the check's memory off the measured heap.
	checkEvery = 8
	checkKeep  = 256
	// checkTol bounds |served − recomputed| per component.
	checkTol = 1e-9
	// bootReps is how many times set-up (boot plus warm-up) is repeated;
	// the last stack is the one measured.
	bootReps = 5
)

// serveConfig is one serving workload.
type serveConfig struct {
	cacheAtoms int
	points     int
	boxFrac    float64 // share of box-cutout requests
	boxSide    float64
	rate       float64 // open-loop req/s; 0 means closed loop
	limit      time.Duration
	warmup     int // closed-loop requests sent before measuring
}

var serveMiss = serveConfig{
	cacheAtoms: 16,
	points:     4,
	limit:      50 * time.Millisecond,
	warmup:     200,
}

var serveHit = func() serveConfig {
	sc := workload.MustScenario("poisson-box")
	side := sc.BoxSide
	if side <= 0 {
		side = 0.6 // jawsload's default cutout side
	}
	return serveConfig{
		cacheAtoms: 64,
		points:     64,
		boxFrac:    sc.BoxFrac,
		boxSide:    side,
		// About a fifth of the stack's closed-loop capacity on 2 cores
		// (≈1,500 req/s): at 600 req/s, minutes in which the hypervisor
		// took 29% of CPU time tipped the generator's two connections into
		// queueing (p50 6 ms, 30% of requests over the 20 ms limit), where
		// 300 req/s kept p50 at 2.1 ms.
		rate:   300,
		limit:  20 * time.Millisecond,
		warmup: 400,
	}
}()

func serveSpace() geom.Space { return geom.Space{GridSide: serveGrid, AtomSide: serveAtom} }

// warmSalt separates the warm-up request stream from the measured one.
const warmSalt = 0x5eed

// request builds request i of the plan seeded by seed: a random step and
// either uniform random points or, with probability boxFrac, a cubic
// lattice cutout (as jawsload expands one).
func (c serveConfig) request(seed int64, i int) server.QueryRequest {
	rng := newSplitmix(seed, i)
	req := server.QueryRequest{Step: int(rng.next() % serveSteps), Kernel: serveKernel}
	if c.boxFrac > 0 && rng.float64() < c.boxFrac {
		req.Points = boxLattice(rng, c.points, c.boxSide)
		return req
	}
	req.Points = make([]server.Point, c.points)
	for j := range req.Points {
		req.Points[j] = server.Point{X: rng.float64() * coordMax, Y: rng.float64() * coordMax, Z: rng.float64() * coordMax}
	}
	return req
}

// boxLattice is a cubic lattice of at most points positions spanning a
// box of the given side, placed uniformly inside the domain.
func boxLattice(rng *splitmix, points int, side float64) []server.Point {
	n := 1
	for (n+1)*(n+1)*(n+1) <= points {
		n++
	}
	var lo [3]float64
	for a := range lo {
		lo[a] = rng.float64() * (coordMax - side)
	}
	coord := func(a, i int) float64 {
		if n == 1 {
			return lo[a] + side/2
		}
		return lo[a] + side*float64(i)/float64(n-1)
	}
	out := make([]server.Point, 0, n*n*n)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				out = append(out, server.Point{X: coord(0, ix), Y: coord(1, iy), Z: coord(2, iz)})
			}
		}
	}
	return out
}

func (c serveConfig) body(seed int64, i int) []byte {
	b, err := json.Marshal(c.request(seed, i))
	if err != nil {
		panic(err) // a QueryRequest always marshals
	}
	return b
}

// stack is one booted serving stack on a loopback listener.
type stack struct {
	srv      *server.Server
	http     *http.Server
	url      string
	served   chan error
	scheds   []*timedSched   // traced stacks only
	backends []*timedBackend // traced stacks only
	reqSpans *obs.ReqSpanAgg // traced stacks only
}

// bootStack starts the stack as jawsd does (registry on, no tracer or
// flight recorder). A traced stack builds each session from the
// engine's parts, as jaws.OpenSession does, so the scheduler can sit
// behind the timing decorator and each session behind a timing backend;
// it also collects the server's request spans.
func bootStack(c serveConfig, tr *tracer) (st *stack, err error) {
	reg := obs.NewRegistry()
	o := &obs.Obs{Reg: reg}
	st = &stack{served: make(chan error, 1)}
	backends := make([]server.Backend, serveNodes)
	defer func() {
		if err != nil && st.srv == nil { // stop the sessions already open
			for _, b := range backends {
				if b != nil {
					b.Close()
				}
			}
		}
	}()
	for i := range backends {
		cfg := jaws.Config{
			Space:      serveSpace(),
			Steps:      serveSteps,
			Seed:       serveField,
			Scheduler:  jaws.SchedJAWS2,
			CacheAtoms: c.cacheAtoms,
			Compute:    true,
			Obs:        o,
			EngineID:   i,
			FaultSeed:  1 + int64(i),
		}
		if tr == nil {
			sess, err := jaws.OpenSession(cfg)
			if err != nil {
				return nil, err
			}
			backends[i] = sess
			continue
		}
		sess, ts, err := tracedSession(cfg, tr)
		if err != nil {
			return nil, err
		}
		tb := newTimedBackend(sess, tr)
		st.scheds = append(st.scheds, ts)
		st.backends = append(st.backends, tb)
		backends[i] = tb
	}
	if tr != nil {
		st.reqSpans = obs.NewReqSpanAgg()
	}
	srv, err := server.New(server.Config{
		Backends: backends,
		Reg:      reg,
		Workers:  serveWorkers,
		Steps:    serveSteps,
		ReqSpans: st.reqSpans,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	st.srv = srv
	st.http = &http.Server{Handler: srv.Handler()}
	st.url = "http://" + ln.Addr().String() + "/query"
	go func() { st.served <- st.http.Serve(ln) }()
	return st, nil
}

// tracedSession is jaws.OpenSession with the scheduler decorated.
func tracedSession(cfg jaws.Config, tr *tracer) (*engine.Session, *timedSched, error) {
	s, err := store.Open(store.Config{Space: cfg.Space, Steps: cfg.Steps, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	c := cache.New(cfg.CacheAtoms, cache.NewLRUK(2, 0))
	inner := sched.NewJAWS(sched.JAWSConfig{
		Cost:         cfg.Cost,
		BatchSize:    15,
		InitialAlpha: 0.5,
		Adaptive:     true,
		Resident:     c.Contains,
	})
	sc, ts, err := wrapSched(inner, tr)
	if err != nil {
		return nil, nil, err
	}
	sess, err := engine.NewSession(engine.Config{
		Store:    s,
		Cache:    c,
		Sched:    sc,
		Cost:     cfg.Cost,
		JobAware: true,
		Compute:  true,
		Obs:      cfg.Obs,
		EngineID: cfg.EngineID,
		Fault:    fault.New(cfg.Fault, cfg.FaultSeed, 0),
	})
	return sess, ts, err
}

// shutdown drains the server, then the listener, and returns the
// replicas' final reports.
func (s *stack) shutdown() ([]*jaws.Report, error) {
	reports := s.srv.Shutdown()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-s.served; err != http.ErrServerClosed {
		return nil, err
	}
	return reports, nil
}

// timedBackend times each query from Submit to its result on the
// session's stream, which it forwards to the server.
type timedBackend struct {
	inner   server.Backend
	tr      *tracer
	results chan *jaws.QueryResult

	mu        sync.Mutex
	submitted map[jaws.QueryID]time.Time
	latencies []time.Duration
}

func newTimedBackend(inner server.Backend, tr *tracer) *timedBackend {
	b := &timedBackend{
		inner:     inner,
		tr:        tr,
		results:   make(chan *jaws.QueryResult, engine.SessionBuffer),
		submitted: make(map[jaws.QueryID]time.Time),
	}
	// The forwarder ends when the session closes its stream (Close, or
	// the session dying), and closes ours in turn.
	go func() {
		defer close(b.results)
		for r := range inner.Results() {
			end := time.Now()
			b.mu.Lock()
			if start, ok := b.submitted[r.Query.ID]; ok {
				delete(b.submitted, r.Query.ID)
				b.latencies = append(b.latencies, end.Sub(start))
				b.tr.record("engine.session", 0, int64(r.Query.ID), start, end)
			}
			b.mu.Unlock()
			b.results <- r
		}
	}()
	return b
}

func (b *timedBackend) Submit(jobs ...*jaws.Job) error {
	now := time.Now()
	b.mu.Lock()
	for _, j := range jobs {
		for _, q := range j.Queries {
			b.submitted[q.ID] = now
		}
	}
	b.mu.Unlock()
	return b.inner.Submit(jobs...)
}

func (b *timedBackend) Results() <-chan *jaws.QueryResult { return b.results }
func (b *timedBackend) Close() *jaws.Report               { return b.inner.Close() }
func (b *timedBackend) Err() error                        { return b.inner.Err() }

// checker validates responses: every 200 carries one value per requested
// point, echoing the positions, and a seeded sample keeps its values for
// independent recomputation.
type checker struct {
	c    serveConfig
	seed int64

	mu      sync.Mutex
	kept    []keptResponse
	points  int   // positions answered by good 200s
	served  []int // request indices with good 200s
	badNote string
}

type keptResponse struct {
	req    server.QueryRequest
	values []server.PointValue
}

func (k *checker) check(i int, body []byte) bool {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		k.note(fmt.Sprintf("request %d: undecodable response: %v", i, err))
		return false
	}
	req := k.c.request(k.seed, i)
	if !samePositions(req.Points, resp.Values) {
		k.note(fmt.Sprintf("request %d: %d values do not echo the %d requested positions", i, len(resp.Values), len(req.Points)))
		return false
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.points += len(resp.Values)
	k.served = append(k.served, i)
	if len(k.kept) < checkKeep && newSplitmix(k.seed^warmSalt, i).next()%checkEvery == 0 {
		k.kept = append(k.kept, keptResponse{req: req, values: resp.Values})
	}
	return true
}

func (k *checker) note(msg string) {
	k.mu.Lock()
	if k.badNote == "" {
		k.badNote = msg
	}
	k.mu.Unlock()
}

// samePositions reports whether values hold exactly the requested
// positions, each once (the server answers in sub-query order).
func samePositions(pts []server.Point, values []server.PointValue) bool {
	if len(pts) != len(values) {
		return false
	}
	less := func(a, b server.Point) bool {
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	}
	want := append([]server.Point(nil), pts...)
	got := make([]server.Point, len(values))
	for i, v := range values {
		got[i] = v.Position
	}
	sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
	sort.Slice(got, func(i, j int) bool { return less(got[i], got[j]) })
	for i := range want {
		if want[i] != got[i] {
			return false
		}
	}
	return true
}

// recompute checks the kept values against an independent evaluation:
// store.Read on each point's atom, then field.Interpolate. It returns
// the number of values compared.
func (k *checker) recompute() (int, error) {
	st, err := store.Open(store.Config{Space: serveSpace(), Steps: serveSteps, Seed: serveField})
	if err != nil {
		return 0, err
	}
	space := st.Space()
	kern := field.KernelLag4
	atoms := make(map[store.AtomID]*field.Atom)
	n := 0
	for _, kr := range k.kept {
		for _, v := range kr.values {
			pos := geom.Position{X: v.Position.X, Y: v.Position.Y, Z: v.Position.Z}
			ac := space.Footprint(pos, kern.StencilRadius())[0]
			id := store.AtomID{Step: kr.req.Step, Code: ac.Code()}
			a, ok := atoms[id]
			if !ok {
				if a, _, err = st.Read(id); err != nil {
					return n, err
				}
				atoms[id] = a
			}
			want := field.Interpolate(kern, a, space, ac, pos)
			got := [field.Components]float64{v.Velocity[0], v.Velocity[1], v.Velocity[2], v.Pressure}
			for c := range want {
				if math.Abs(want[c]-got[c]) > checkTol {
					return n, fmt.Errorf("step %d position %v component %d: served %v, recomputed %v",
						kr.req.Step, pos, c, got[c], want[c])
				}
			}
			n++
		}
	}
	return n, nil
}

// bootWarm boots a stack and warms it closed-loop; the warm-up is part
// of set-up.
func bootWarm(c serveConfig, seed int64, tr *tracer) (*stack, time.Duration, error) {
	t0 := time.Now()
	st, err := bootStack(c, tr)
	if err != nil {
		return nil, 0, err
	}
	warm := &tally{limit: c.limit}
	wk := &checker{c: c, seed: seed ^ warmSalt}
	// Every warm-up request is due at once: a closed loop of exactly
	// c.warmup requests over the generator's connections.
	drive(loadSpec{
		url:   st.url,
		conns: serveConns,
		body:  func(i int) []byte { return c.body(seed^warmSalt, i) },
		check: wk.check,
		due:   make([]time.Duration, c.warmup),
	}, warm)
	if warm.failed() > 0 {
		_, _ = st.shutdown() // the warm-up failure is the error to report
		return nil, 0, fmt.Errorf("warm-up: %d of %d requests failed (%s)", warm.failed(), warm.attempted, wk.badNote)
	}
	return st, time.Since(t0), nil
}

// phase is one measured stretch of load against a booted stack.
type phase struct {
	tally *tally
	chk   *checker
	cost  phaseCost
	wall  time.Duration
}

func measure(c serveConfig, st *stack, seed int64, seconds time.Duration, tr *tracer) *phase {
	p := &phase{tally: &tally{limit: c.limit}, chk: &checker{c: c, seed: seed}}
	spec := loadSpec{
		url:   st.url,
		conns: serveConns,
		body:  func(i int) []byte { return c.body(seed, i) },
		check: p.chk.check,
		stop:  seconds,
	}
	if c.rate > 0 {
		spec.due = poissonDue(seed, c.rate, seconds)
	}
	if tr != nil {
		spec.record = func(i int, start, end time.Time) { tr.record("loadgen.request", 0, int64(i), start, end) }
	}
	runtime.GC()
	m := startMeter()
	p.wall = drive(spec, p.tally)
	p.cost = m.stop()
	return p
}

func runServe(o options, c serveConfig) (*outcome, error) {
	if o.trace {
		return traceServe(o, c)
	}
	var setups []float64
	var st *stack
	for i := 0; i < bootReps; i++ {
		s, d, err := bootWarm(c, o.seed, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < bootReps-1 {
			if _, err := s.shutdown(); err != nil {
				return nil, err
			}
		} else {
			st = s
		}
	}
	p := measure(c, st, o.seed, o.seconds, nil)
	if _, err := st.shutdown(); err != nil {
		return nil, err
	}
	correct := p.verify(o)
	t := p.tally
	served := t.served()
	if served == 0 {
		return nil, fmt.Errorf("no request was served (%d attempted)", t.attempted)
	}
	ms := sortedCopy(durationsMS(t.latencies))
	fmt.Fprintf(o.log, "requests        %d attempted, %d served in %.2fs; %d shed, %d 5xx, %d timeouts, %d transport, %d bad, %d over %v\n",
		t.attempted, served, p.wall.Seconds(), t.byClass[classShed], t.byClass[classServerErr],
		t.byClass[classTimeout], t.byClass[classTransport], t.byClass[classBad], t.overLimit, c.limit)
	pct, tail, _ := tailPercentile(ms)
	late := sortedCopy(durationsMS(t.late))
	lateP99, _ := quantile(late, 99)
	fmt.Fprintf(o.log, "latency         p50 %.3f ms, p%g %.3f ms over %d samples; generator late p99 %.3f ms\n",
		median(ms), pct, tail, len(ms), lateP99)
	fmt.Fprintf(o.log, "host steal      %.1f%% of CPU time during the measured phase\n", 100*p.cost.StealFrac)
	return &outcome{
		correct:   correct,
		attempted: t.attempted,
		failed:    t.failed(),
		metrics: map[string]float64{
			"setup_s":        median(setups),
			"qps":            float64(served) / p.wall.Seconds(),
			"p50_ms":         median(ms),
			"cpu_ms_per_q":   float64(p.cost.CPU) / float64(time.Millisecond) / float64(served),
			"alloc_kb_per_q": float64(p.cost.AllocBytes) / 1024 / float64(served),
			"peak_heap_mb":   float64(p.cost.PeakLive) / (1 << 20),
			"ok_frac":        1 - t.missFrac(),
		},
	}, nil
}

// verify reports whether every response passed the shape checks and
// the kept sample matches its recomputation.
func (p *phase) verify(o options) bool {
	if p.chk.badNote != "" {
		fmt.Fprintf(o.log, "check failed: %s\n", p.chk.badNote)
		return false
	}
	n, err := p.chk.recompute()
	if err != nil {
		fmt.Fprintf(o.log, "check failed: %v\n", err)
		return false
	}
	if n == 0 {
		fmt.Fprintf(o.log, "check failed: no served values were sampled\n")
		return false
	}
	fmt.Fprintf(o.log, "checked         %d served values recomputed within %g\n", n, checkTol)
	return true
}

// traceServe measures an untraced and then a traced stack for half the
// time each, and reports the traced stack's per-layer metrics.
func traceServe(o options, c serveConfig) (*outcome, error) {
	half := o.seconds / 2
	st, _, err := bootWarm(c, o.seed, nil)
	if err != nil {
		return nil, err
	}
	up := measure(c, st, o.seed, half, nil)
	if _, err := st.shutdown(); err != nil {
		return nil, err
	}

	tr := newTracer()
	var openS []float64
	for i := 0; i < bootReps; i++ {
		d := timeIt(func() { _, err = store.Open(store.Config{Space: serveSpace(), Steps: serveSteps, Seed: serveField}) })
		if err != nil {
			return nil, err
		}
		openS = append(openS, d.Seconds())
	}
	root := tr.begin("serve.traced", 0)
	st, _, err = bootWarm(c, o.seed, tr)
	if err != nil {
		return nil, err
	}
	tp := measure(c, st, o.seed, half, tr)
	reports, err := st.shutdown()
	if err != nil {
		return nil, err
	}
	tr.end(root)
	correct := up.verify(o) && tp.verify(o)

	// Replays over the traced phase's served requests.
	replay := tr.begin("replay", 0)
	genD := tr.time("workload.plan", replay, func() {
		for _, i := range tp.chk.served {
			c.body(o.seed, i)
		}
	})
	var qs []*query.Query
	for n, i := range tp.chk.served {
		req := c.request(o.seed, i)
		pts := make([]geom.Position, len(req.Points))
		for j, p := range req.Points {
			pts[j] = geom.Position{X: p.X, Y: p.Y, Z: p.Z}
		}
		qs = append(qs, &query.Query{ID: query.ID(n + 1), Step: req.Step, Points: pts, Kernel: field.KernelLag4})
	}
	sqs, preD, err := replayPreprocess(tr, replay, qs, serveSpace())
	if err != nil {
		return nil, err
	}
	fresh, err := store.Open(store.Config{Space: serveSpace(), Steps: serveSteps, Seed: serveField})
	if err != nil {
		return nil, err
	}
	readUS, interpNS, err := readInterpCost(tr, replay, fresh, sqs, o.seed, 256)
	if err != nil {
		return nil, err
	}
	tr.end(replay)

	var reads, hits, misses int64
	for _, r := range reports {
		reads += r.DiskStats.Reads
		hits += r.CacheStats.Hits
		misses += r.CacheStats.Misses
	}
	var sess []time.Duration
	for _, b := range st.backends {
		sess = append(sess, b.latencies...)
	}
	sessMS := sortedCopy(durationsMS(sess))
	sessRun := 0.0
	for _, v := range sessMS {
		sessRun += v / 1e3
	}
	sessTail := quantileOrMax(sessMS, 99)
	storeBusy := float64(reads) * readUS / 1e6
	var schedBusy time.Duration
	for _, ts := range st.scheds {
		schedBusy += ts.decideTime + ts.enqueueTime
	}
	// Pre-processing and interpolation per served request, scaled to
	// every query the sessions ran (warm-up included).
	perQuery := 0.0
	if len(qs) > 0 {
		perQuery = (preD.Seconds() + float64(tp.chk.points)*interpNS/1e9) / float64(len(qs))
	}
	stats := st.srv.Stats()
	phases := map[string]time.Duration{}
	shares := map[string]float64{}
	sum := st.reqSpans.Summarize(0)
	for _, row := range sum.Attribution() {
		phases[row.Name] = row.MeanPerQuery
		shares[row.Name] = row.Share
	}
	late := sortedCopy(durationsMS(tp.tally.late))
	lateP99, _ := quantile(late, 99)
	// The client tail comes from the untraced phase, by the percentile
	// rule (the median when no percentile has ten samples beyond it).
	clientMS := sortedCopy(durationsMS(up.tally.latencies))
	tailPct, clientTail, ok := tailPercentile(clientMS)
	if !ok {
		tailPct, clientTail = 50, median(clientMS)
	}
	fmt.Fprintf(o.log, "client tail     p%g %.3f ms over %d samples (untraced phase)\n", tailPct, clientTail, len(clientMS))
	tpCPU := float64(tp.cost.CPU) / float64(max(tp.tally.served(), 1))
	upCPU := float64(up.cost.CPU) / float64(max(up.tally.served(), 1))
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	met := layerMetrics{
		"workload.generate_s":    genD.Seconds(),
		"store.open_s":           median(openS),
		"store.reads":            float64(reads),
		"store.read_us":          readUS,
		"store.busy_s":           storeBusy,
		"cache.hit_rate":         float64(hits) / math.Max(1, float64(hits+misses)),
		"cache.misses":           float64(misses),
		"query.preprocess_calls": float64(len(qs)),
		"query.preprocess_s":     preD.Seconds(),
		"field.interp_points":    float64(tp.chk.points),
		"field.interp_ns":        interpNS,
		"engine.run_s":           sessRun,
		"engine.self_s":          sessRun - storeBusy - schedBusy.Seconds() - perQuery*float64(len(sess)),
		"engine.session_ms_p50":  median(sessMS),
		"engine.session_ms_p99":  sessTail,
		"server.requests":        float64(stats.Requests),
		"server.served":          float64(stats.Served),
		"server.shed":            float64(stats.Shed),
		"server.timeouts":        float64(stats.Timeouts),
		"server.errors":          float64(stats.Errors),
		"server.validate_share":  shares["validate"],
		"server.queued_share":    shares["queued"],
		"server.dispatch_share":  shares["dispatch"],
		"server.execute_share":   shares["execute"],
		"server.write_share":     shares["write"],
		"server.validate_ms":     msOf(phases["validate"]),
		"server.queued_ms":       msOf(phases["queued"]),
		"server.dispatch_ms":     msOf(phases["dispatch"]),
		"server.execute_ms":      msOf(phases["execute"]),
		"server.write_ms":        msOf(phases["write"]),
		"runtime.gc_cycles":      float64(tp.cost.GCCycles),
		"runtime.gc_pause_ms":    msOf(tp.cost.GCPause),
		"loadgen.sent":           float64(tp.tally.attempted),
		"loadgen.late_p99_ms":    lateP99,
		"loadgen.tail_ms":        clientTail,
		"trace.overhead_frac":    tpCPU/upCPU - 1,
	}
	met.addSched(st.scheds...)
	met.zero("jobgraph.admit_calls", "jobgraph.admit_s", "jobgraph.admit_share", "jobgraph.gating_admitted",
		"jobgraph.gating_rejected", "obs.flight_records", "obs.flight_s", "obs.flight_share", "obs.spans",
		"obs.causes_s", "obs.causes_share")
	return &outcome{
		correct:   correct,
		attempted: up.tally.attempted + tp.tally.attempted,
		failed:    up.tally.failed() + tp.tally.failed(),
		metrics:   met,
		tracer:    tr,
	}, nil
}
