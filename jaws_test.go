package jaws

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"jaws/internal/engine"
)

// smallConfig keeps façade tests fast: a tiny store and workload.
func smallConfig(s Scheduler) Config {
	return Config{
		Space:      Space{GridSide: 128, AtomSide: 32},
		Steps:      4,
		SampleSide: 4,
		Scheduler:  s,
		BatchSize:  5,
		CacheAtoms: 16,
		Cost:       CostModel{Tb: 40 * time.Millisecond, Tm: 20 * time.Microsecond},
	}
}

func smallWorkload(seed int64, jobs int) *Workload {
	return GenerateWorkload(WorkloadConfig{
		Seed:           seed,
		Space:          Space{GridSide: 128, AtomSide: 32},
		Steps:          4,
		Jobs:           jobs,
		PointsPerQuery: 20,
		MeanJobGap:     200 * time.Millisecond,
		ThinkTime:      10 * time.Millisecond,
		QueryScale:     20,
	})
}

func TestOpenDefaults(t *testing.T) {
	sys, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Store().Steps() != 31 {
		t.Fatalf("default steps = %d, want 31", sys.Store().Steps())
	}
}

func TestOpenRejectsBadPolicy(t *testing.T) {
	cfg := smallConfig(SchedJAWS2)
	cfg.Policy = CachePolicy(99)
	if _, err := Open(cfg); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestOpenRejectsBadScheduler(t *testing.T) {
	if _, err := Open(smallConfig(Scheduler(99))); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestEndToEndAllSchedulers(t *testing.T) {
	w := smallWorkload(5, 30)
	total := w.TotalQueries()
	for _, s := range []Scheduler{SchedNoShare, SchedLifeRaft1, SchedLifeRaft2, SchedJAWS1, SchedJAWS2} {
		sys, err := Open(smallConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		rep, err := sys.Run(smallWorkload(5, 30).Jobs)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if rep.Completed != total {
			t.Fatalf("%v completed %d/%d", s, rep.Completed, total)
		}
		if rep.ThroughputQPS <= 0 || rep.MeanResponse <= 0 {
			t.Fatalf("%v produced empty metrics: %+v", s, rep)
		}
	}
}

func TestJAWS2BeatsNoShareOnContendedTrace(t *testing.T) {
	// The headline claim at small scale: shared scheduling outperforms
	// independent evaluation under contention.
	run := func(s Scheduler) float64 {
		sys, err := Open(smallConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		w := smallWorkload(7, 60)
		rep, err := sys.Run(w.Jobs)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ThroughputQPS
	}
	noshare := run(SchedNoShare)
	jaws2 := run(SchedJAWS2)
	if jaws2 <= noshare {
		t.Fatalf("JAWS2 (%.3f qps) did not beat NoShare (%.3f qps)", jaws2, noshare)
	}
}

func TestAllCachePolicies(t *testing.T) {
	for _, p := range []CachePolicy{PolicyLRUK, PolicySLRU, PolicyURC, PolicyLRU, PolicyFIFO, PolicyTwoQ} {
		cfg := smallConfig(SchedJAWS1)
		cfg.Policy = p
		sys, err := Open(cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		w := smallWorkload(3, 20)
		if _, err := sys.Run(w.Jobs); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		st := sys.CacheStats()
		if st.Hits+st.Misses == 0 {
			t.Fatalf("%v: cache never touched", p)
		}
	}
}

func TestJobIdentificationFacade(t *testing.T) {
	w := smallWorkload(11, 50)
	assignment := IdentifyJobs(w.Records)
	if len(assignment) != len(w.Records) {
		t.Fatalf("assignment covers %d of %d records", len(assignment), len(w.Records))
	}
	if acc := JobIdentificationAccuracy(w.Records, assignment); acc < 0.85 {
		t.Fatalf("accuracy %.3f too low", acc)
	}
}

func TestRunCluster(t *testing.T) {
	cfg := ClusterConfig{Nodes: 4, Node: smallConfig(SchedJAWS1)}
	w := smallWorkload(13, 20)
	rep, err := RunCluster(cfg, w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("cluster completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if rep.AggregateThroughput <= 0 {
		t.Fatal("no aggregate throughput")
	}
}

func TestComputeEndToEnd(t *testing.T) {
	cfg := smallConfig(SchedJAWS2)
	cfg.Compute = true
	cfg.KeepResults = true
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(17, 5)
	rep, err := sys.Run(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != rep.Completed {
		t.Fatalf("results %d != completed %d", len(rep.Results), rep.Completed)
	}
	for _, r := range rep.Results {
		if len(r.Positions) == 0 {
			t.Fatal("query completed without computed positions")
		}
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []Scheduler{SchedNoShare, SchedLifeRaft1, SchedLifeRaft2, SchedJAWS1, SchedJAWS2, Scheduler(42)} {
		if s.String() == "" {
			t.Fatal("empty scheduler name")
		}
	}
	for _, p := range []CachePolicy{PolicyLRUK, PolicySLRU, PolicyURC, PolicyLRU, PolicyFIFO, PolicyTwoQ, CachePolicy(42)} {
		if p.String() == "" {
			t.Fatal("empty policy name")
		}
	}
}

func TestNamesRoundTrip(t *testing.T) {
	for s := Scheduler(0); int(s) < len(schedulerNames); s++ {
		if got, err := ParseScheduler(s.String()); err != nil || got != s {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for p := CachePolicy(0); int(p) < len(policyNames); p++ {
		if got, err := ParseCachePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParseCachePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, name := range strings.Split(SchedulerNames(), ", ") {
		if _, err := ParseScheduler(name); err != nil {
			t.Errorf("listed scheduler %q: %v", name, err)
		}
	}
	for _, name := range strings.Split(CachePolicyNames(), ", ") {
		if _, err := ParseCachePolicy(name); err != nil {
			t.Errorf("listed policy %q: %v", name, err)
		}
	}
	for name, want := range map[string]Scheduler{"jaws2": SchedJAWS2, "JAWS2": SchedJAWS2, "noshare": SchedNoShare, "LifeRaft-1": SchedLifeRaft1} {
		if got, err := ParseScheduler(name); err != nil || got != want {
			t.Errorf("ParseScheduler(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	for name, want := range map[string]CachePolicy{"lruk": PolicyLRUK, "lru-k": PolicyLRUK, "LRU-K": PolicyLRUK, "2q": PolicyTwoQ, "fifo": PolicyFIFO} {
		if got, err := ParseCachePolicy(name); err != nil || got != want {
			t.Errorf("ParseCachePolicy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScheduler("bogus"); err == nil || err.Error() != `unknown scheduler "bogus"` {
		t.Errorf("ParseScheduler(bogus) error = %v", err)
	}
	if _, err := ParseCachePolicy("bogus"); err == nil || err.Error() != `unknown cache policy "bogus"` {
		t.Errorf("ParseCachePolicy(bogus) error = %v", err)
	}
	for _, name := range []string{Scheduler(42).String(), Scheduler(-1).String(), CachePolicy(42).String()} {
		if name == "" {
			t.Error("empty name for an out-of-range value")
		}
	}
}

// comparable strips a report's wall-clock field so virtual-time results
// compare exactly.
func comparable(rep *Report) Report {
	r := *rep
	r.CacheStats.PolicyTime = 0
	return r
}

func TestZeroCostMatchesResolved(t *testing.T) {
	// The zero Cost is resolved once, for scheduler and engine alike, so
	// it schedules exactly as the resolved model passed explicitly.
	resolved := engine.ResolveCost(CostModel{})
	if n, err := newNode(Config{}); err != nil || n.Cost != resolved {
		t.Fatalf("newNode(Config{}).Cost = %+v, %v; want %+v", n.Cost, err, resolved)
	}
	for s := Scheduler(0); int(s) < len(schedulerNames); s++ {
		var reps [2]Report
		for i, cost := range []CostModel{{}, resolved} {
			cfg := smallConfig(s)
			cfg.Cost = cost
			sys, err := Open(cfg)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			rep, err := sys.Run(smallWorkload(7, 40).Jobs)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			reps[i] = comparable(rep)
		}
		if !reflect.DeepEqual(reps[0], reps[1]) {
			t.Errorf("%v: zero Cost report differs from the resolved one:\n%+v\n%+v", s, reps[0], reps[1])
		}
	}
}

func TestRunClusterNodeMatchesOpen(t *testing.T) {
	// A one-node cluster builds its node as Open does, so it reproduces
	// Open's run exactly, node settings included.
	for name, mutate := range map[string]func(*Config){
		"defaults":       func(*Config) {},
		"zero cost":      func(c *Config) { c.Scheduler = SchedLifeRaft2; c.Cost = CostModel{} },
		"slru protected": func(c *Config) { c.Policy = PolicySLRU; c.ProtectedFrac = 0.5 },
		"qos":            func(c *Config) { c.QoSStretch = 8 },
		"tail policy":    func(c *Config) { c.TailPolicy = "gate-aware" },
	} {
		cfg := smallConfig(SchedJAWS2)
		mutate(&cfg)
		sys, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := sys.Run(smallWorkload(13, 30).Jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep, err := RunCluster(ClusterConfig{Nodes: 1, Node: cfg}, smallWorkload(13, 30).Jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := comparable(rep.PerNode[0].Report); !reflect.DeepEqual(got, comparable(want)) {
			t.Errorf("%s: cluster node report differs from Open's:\n%+v\n%+v", name, got, comparable(want))
		}
	}
}

func TestRunClusterRejectsNodeSettings(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"bad tail policy", func(c *Config) { c.TailPolicy = "bogus" }, "jaws: "},
		{"tail policy on liferaft", func(c *Config) { c.Scheduler = SchedLifeRaft2; c.TailPolicy = "gate-aware" }, "TailPolicy requires a JAWS scheduler"},
		{"tail policy with qos", func(c *Config) { c.TailPolicy = "gate-aware"; c.QoSStretch = 8 }, "cannot be combined with QoSStretch"},
		{"bad policy", func(c *Config) { c.Policy = CachePolicy(99) }, "unknown cache policy"},
		{"noshare", func(c *Config) { c.Scheduler = SchedNoShare }, "Node.Scheduler SchedNoShare"},
		{"compute", func(c *Config) { c.Compute = true }, "Node.Compute"},
		{"keep results", func(c *Config) { c.KeepResults = true }, "Node.KeepResults"},
		{"parallelism", func(c *Config) { c.Parallelism = 2 }, "Node.Parallelism"},
		{"prefetch", func(c *Config) { c.Prefetch = true }, "Node.Prefetch"},
		{"declare jobs", func(c *Config) { c.DeclareJobs = true }, "Node.DeclareJobs"},
		{"obs", func(c *Config) { c.Obs = &Obs{} }, "ClusterConfig.Observe"},
		{"engine id", func(c *Config) { c.EngineID = 1 }, "Node.EngineID"},
	}
	for _, c := range cases {
		cfg := ClusterConfig{Nodes: 2, Node: smallConfig(SchedJAWS1)}
		c.mutate(&cfg.Node)
		if _, err := RunCluster(cfg, smallWorkload(13, 10).Jobs); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}

func TestDefaultEvaluationCost(t *testing.T) {
	c := DefaultEvaluationCost()
	if c.Tb <= 0 || c.Tm <= 0 {
		t.Fatalf("bad default cost %+v", c)
	}
}

func TestExtensionsEndToEnd(t *testing.T) {
	// The §VII extensions — prefetch, declared jobs, QoS — must all run a
	// workload to completion through the public API.
	cfg := smallConfig(SchedJAWS2)
	cfg.Prefetch = true
	cfg.DeclareJobs = true
	cfg.QoSStretch = 8
	sys, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(23, 25)
	rep, err := sys.Run(w.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if rep.Scheduler != "JAWS+QoS" {
		t.Fatalf("scheduler = %q, want the QoS wrapper", rep.Scheduler)
	}
	if rep.PrefetchedAtoms == 0 {
		t.Fatal("prefetch idle on an ordered-job workload")
	}
}

func TestOpenSession(t *testing.T) {
	sess, err := OpenSession(smallConfig(SchedJAWS2))
	if err != nil {
		t.Fatal(err)
	}
	w := smallWorkload(29, 6)
	for _, j := range w.Jobs {
		if err := sess.Submit(j); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	timeout := time.After(20 * time.Second)
	for got < w.TotalQueries() {
		select {
		case r := <-sess.Results():
			if r == nil {
				t.Fatal("stream closed early")
			}
			got++
		case <-timeout:
			t.Fatalf("timed out with %d/%d results", got, w.TotalQueries())
		}
	}
	rep := sess.Close()
	if rep.Completed != w.TotalQueries() {
		t.Fatalf("completed %d/%d", rep.Completed, w.TotalQueries())
	}
	if sess.Err() != nil {
		t.Fatal(sess.Err())
	}
}
