package sched

import (
	"math"
	"sort"
	"time"

	"jaws/internal/obs"
	"jaws/internal/query"
	"jaws/internal/store"
)

// JAWSConfig parameterizes the JAWS scheduler.
type JAWSConfig struct {
	Cost CostModel
	// BatchSize is k, the maximum number of atoms co-scheduled per time
	// step (§V). The paper finds the optimum between 10 and 15 and uses
	// k = 15 in the evaluation.
	BatchSize int
	// InitialAlpha seeds the age bias; the paper initializes α to 0.5.
	InitialAlpha float64
	// Adaptive enables the automated starvation-resistance controller of
	// §V.A. When false, α stays at InitialAlpha.
	Adaptive bool
	// Resident reports cache residency for φ(i); may be nil.
	Resident func(store.AtomID) bool
	// NoMortonOrder disables the Morton-order execution of the selected
	// batch (ablation): atoms run in descending-metric order instead, so
	// the disk sees no sequential runs and stencil locality is broken.
	NoMortonOrder bool
}

// selSorter orders a JAWS selection in one of the three orders the
// algorithm needs, swapping the score slice in lockstep. A preallocated
// struct (instead of sort.Slice closures) keeps the decision path
// allocation-free.
type selSorter struct {
	sel   []*atomQueue
	score []float64
	mode  int
}

const (
	sortScoreDescKeyAsc  = iota // truncation: most contentious first
	sortKeyAsc                  // Morton execution order
	sortScoreDescKeyDesc        // noMorton ablation: metric order
)

func (s *selSorter) Len() int { return len(s.sel) }

func (s *selSorter) Swap(i, j int) {
	s.sel[i], s.sel[j] = s.sel[j], s.sel[i]
	s.score[i], s.score[j] = s.score[j], s.score[i]
}

func (s *selSorter) Less(i, j int) bool {
	switch s.mode {
	case sortKeyAsc:
		return s.sel[i].id.Key() < s.sel[j].id.Key()
	case sortScoreDescKeyDesc:
		if s.score[i] != s.score[j] {
			return s.score[i] > s.score[j]
		}
		return s.sel[i].id.Key() > s.sel[j].id.Key()
	default: // sortScoreDescKeyAsc
		if s.score[i] != s.score[j] {
			return s.score[i] > s.score[j]
		}
		return s.sel[i].id.Key() < s.sel[j].id.Key()
	}
}

// JAWS is the two-level, adaptively starvation-resistant scheduler of §V.
// At the coarse level it picks the time step with the highest mean aged
// workload throughput; at the fine level it batches up to k above-mean
// atoms of that step and executes them in Morton order.
type JAWS struct {
	q        *queues
	k        int
	ctrl     *alphaController
	noMorton bool
	trace    *obs.Tracer

	// Decision capture for the flight recorder (see Explained); off by
	// default so the decision path stays allocation-free.
	explain bool
	exp     Explain

	// lastTrunc is the number of above-mean candidates the batch bound
	// dropped in the most recent decision (the per-round batch-full
	// pass-over count the adaptive-batch policy steers on).
	lastTrunc int

	// Reused decision buffers (zero allocations in steady state).
	sel    []*atomQueue
	score  []float64
	sorter selSorter
	out    []Batch
}

// NewJAWS creates a JAWS scheduler.
func NewJAWS(cfg JAWSConfig) *JAWS {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 15
	}
	alpha := cfg.InitialAlpha
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return &JAWS{
		q:        newQueues(cfg.Cost, cfg.Resident),
		k:        cfg.BatchSize,
		ctrl:     newAlphaController(alpha, cfg.Adaptive),
		noMorton: cfg.NoMortonOrder,
	}
}

// Name implements Scheduler.
func (s *JAWS) Name() string { return "JAWS" }

// Enqueue implements Scheduler.
func (s *JAWS) Enqueue(sq *query.SubQuery, now time.Duration) { s.q.add(sq, now) }

// sortSel sorts the current selection under the given mode.
func (s *JAWS) sortSel(mode int) {
	s.sorter.sel = s.sel
	s.sorter.score = s.score
	s.sorter.mode = mode
	sort.Sort(&s.sorter)
}

// NextBatch implements Scheduler. Two-level selection (Fig. 6): first the
// time step with the highest mean aged workload throughput, then up to k
// atoms of that step whose metric exceeds the step mean, sorted in Morton
// order. If no atom strictly exceeds the mean (e.g. all queues equal),
// the single best atom is scheduled so progress is always made.
//
// The selection walks the step buckets in ascending step order and each
// bucket's atoms in ascending key order — exactly the iteration order of
// the reference model, so strict > reproduces its tie-breaks and the
// floating-point sums accumulate identically.
func (s *JAWS) NextBatch(now time.Duration) []Batch {
	s.lastTrunc = 0
	s.q.beginDecision()
	if len(s.q.buckets) == 0 {
		return nil
	}
	s.q.syncResidency()
	alpha := s.ctrl.alpha
	var exp *Explain
	if s.explain {
		exp = &s.exp
		exp.reset(s.Name(), alpha, len(s.q.byAtom), s.q.subs)
	}

	var bestBucket *stepBucket
	bestMean := 0.0
	for _, b := range s.q.buckets {
		mean := s.q.stepMeanUeBucket(b, alpha, now)
		if exp != nil {
			exp.captureStep(s.q, b, alpha, now)
		}
		if bestBucket == nil || mean > bestMean {
			bestBucket, bestMean = b, mean
		}
	}
	if exp != nil {
		exp.WinnerStep = bestBucket.step
	}

	s.sel = s.sel[:0]
	s.score = s.score[:0]
	var fallback *atomQueue
	fallbackScore := 0.0
	for _, aq := range bestBucket.atoms {
		sc := s.q.ue(aq, alpha, now)
		if sc > bestMean {
			s.sel = append(s.sel, aq)
			s.score = append(s.score, sc)
		}
		if fallback == nil || sc > fallbackScore {
			fallback, fallbackScore = aq, sc
		}
	}
	if len(s.sel) == 0 {
		s.sel = append(s.sel, fallback)
		s.score = append(s.score, fallbackScore)
	}
	// Keep the k most contentious of the above-mean atoms, then execute
	// them in Morton order to amortize seeks. The selection is built in
	// key order, so the Morton re-sort is only needed after a truncation
	// disturbed it.
	truncated := false
	if len(s.sel) > s.k {
		s.lastTrunc = len(s.sel) - s.k
		s.sortSel(sortScoreDescKeyAsc)
		if exp != nil {
			// The victims are the tail beyond k, before the shrink: the
			// above-mean candidates the batch bound passed over.
			for i := s.k; i < len(s.sel); i++ {
				exp.captureAtom(&exp.Truncated, s.q, s.sel[i], s.score[i], now)
			}
		}
		s.sel = s.sel[:s.k]
		s.score = s.score[:s.k]
		truncated = true
	}
	if s.noMorton {
		// Ablation: metric order instead of Morton order.
		s.sortSel(sortScoreDescKeyDesc)
	} else if truncated {
		s.sortSel(sortKeyAsc)
	}
	if s.trace.Enabled() {
		for i, aq := range s.sel {
			s.trace.Decision(now, s.Name(), aq.id.Step, uint64(aq.id.Code),
				len(s.sel), s.q.ut(aq), s.score[i], alpha)
		}
	}
	s.out = s.out[:0]
	for i, aq := range s.sel {
		if exp != nil {
			exp.captureAtom(&exp.Chosen, s.q, aq, s.score[i], now)
		}
		s.out = append(s.out, s.q.take(aq.id))
		s.sel[i] = nil
	}
	return s.out
}

// SetExplain implements Explained.
func (s *JAWS) SetExplain(on bool) { s.explain = on }

// LastExplain implements Explained.
func (s *JAWS) LastExplain() *Explain {
	if !s.explain {
		return nil
	}
	return &s.exp
}

// SetTracer implements Traced.
func (s *JAWS) SetTracer(t *obs.Tracer) { s.trace = t }

// SetResidencyVersion implements ResidencyVersioned.
func (s *JAWS) SetResidencyVersion(fn func() uint64) { s.q.setResidencyVersion(fn) }

// Pending implements Scheduler.
func (s *JAWS) Pending() int { return s.q.subs }

// OnRunEnd implements Scheduler: feed the run's performance to the
// adaptive α controller.
func (s *JAWS) OnRunEnd(rt, tp float64) { s.ctrl.onRunEnd(rt, tp) }

// Alpha implements Scheduler.
func (s *JAWS) Alpha() float64 { return s.ctrl.alpha }

// BatchSize returns k.
func (s *JAWS) BatchSize() int { return s.k }

// SetBatchSize changes k for subsequent decisions (clamped to ≥ 1). The
// adaptive-batch tail policy resizes the batch through this.
func (s *JAWS) SetBatchSize(k int) {
	if k < 1 {
		k = 1
	}
	s.k = k
}

// LastTruncated reports how many above-mean candidates the batch bound
// dropped in the most recent decision (0 when the round fit within k).
func (s *JAWS) LastTruncated() int { return s.lastTrunc }

// AtomUtility implements UtilityProvider.
func (s *JAWS) AtomUtility(id store.AtomID) float64 {
	s.q.syncResidency()
	if aq, ok := s.q.byAtom[id]; ok {
		return s.q.ut(aq)
	}
	return 0
}

// StepMean implements UtilityProvider.
func (s *JAWS) StepMean(step int) float64 {
	s.q.syncResidency()
	return s.q.stepMeanUt(step)
}

// PendingSteps implements UtilityProvider: the memoized ascending step
// list (no per-call allocation; do not mutate).
func (s *JAWS) PendingSteps() []int { return s.q.steps }

var (
	_ Scheduler          = (*JAWS)(nil)
	_ UtilityProvider    = (*JAWS)(nil)
	_ Traced             = (*JAWS)(nil)
	_ ResidencyVersioned = (*JAWS)(nil)
	_ Explained          = (*JAWS)(nil)
)

// alphaController implements the adaptive starvation resistance of §V.A.
// The workload is divided into runs of r consecutive queries (the engine
// decides r and calls onRunEnd). Performance is smoothed with the paper's
// EWMA (x' = 0.2·x + 0.8·x'); the age bias is then adjusted:
//
//	(1) saturation rising (rt ratio ≥ 1) and throughput not keeping up:
//	    α decreases (bias toward contention) by min(Δ, α);
//	(2) saturation falling (rt ratio < 1) and throughput fell faster:
//	    α increases (bias toward age) by min(Δ, 1−α);
//
// where Δ = rt-ratio − tp-ratio. If two consecutive runs show no change,
// the controller perturbs α to explore the trade-off curve rather than
// staying stuck at a bad initial value.
type alphaController struct {
	alpha    float64
	adaptive bool

	rtS, tpS       float64 // EWMA-smoothed response time and throughput
	smoothed       bool    // rtS/tpS hold at least one run
	prevRt, prevTp float64
	havePrev       bool
	flatRuns       int
	exploreSign    float64

	// History records α after each run for the Fig. 11 diagnostics.
	History []float64
}

func newAlphaController(alpha float64, adaptive bool) *alphaController {
	return &alphaController{
		alpha:       alpha,
		adaptive:    adaptive,
		exploreSign: 1,
	}
}

// flatTolerance bounds the relative change regarded as "no change" for
// the exploration rule.
const flatTolerance = 0.01

// exploreStep is the α perturbation applied when the trade-off curve has
// been flat for two consecutive runs.
const exploreStep = 0.05

func (c *alphaController) onRunEnd(rt, tp float64) {
	if !c.adaptive {
		return
	}
	// x'(0) = x(0); after that x' = w·x + (1−w)·x' with w = 0.2. The
	// weight is a float64 variable, not an untyped constant, so 1−w is
	// float64 arithmetic (not an exact 0.8), bit for bit what the
	// oracle's restatement of the recurrence computes.
	w := 0.2
	if !c.smoothed {
		c.rtS, c.tpS = rt, tp
		c.smoothed = true
	} else {
		c.rtS = w*rt + (1-w)*c.rtS
		c.tpS = w*tp + (1-w)*c.tpS
	}
	srt, stp := c.rtS, c.tpS
	defer func() { c.History = append(c.History, c.alpha) }()
	if !c.havePrev {
		c.prevRt, c.prevTp = srt, stp
		c.havePrev = true
		return
	}
	if c.prevRt <= 0 || c.prevTp <= 0 {
		c.prevRt, c.prevTp = srt, stp
		return
	}
	rtRatio := srt / c.prevRt
	tpRatio := stp / c.prevTp
	c.prevRt, c.prevTp = srt, stp

	delta := rtRatio - tpRatio
	switch {
	case rtRatio >= 1 && tpRatio < rtRatio:
		// Saturation rising without commensurate throughput: chase
		// contention.
		c.alpha -= math.Min(delta, c.alpha)
		c.flatRuns = 0
	case rtRatio < 1 && tpRatio < rtRatio:
		// Saturation falling and throughput fell faster than response
		// time improved: spend slack on latency.
		c.alpha += math.Min(delta, 1-c.alpha)
		c.flatRuns = 0
	case math.Abs(rtRatio-1) < flatTolerance && math.Abs(tpRatio-1) < flatTolerance:
		c.flatRuns++
		if c.flatRuns >= 2 {
			// Explore the performance curve: alternate the direction so a
			// fruitless probe is undone on the next flat pair.
			c.alpha += c.exploreSign * exploreStep
			c.exploreSign = -c.exploreSign
			c.flatRuns = 0
		}
	default:
		c.flatRuns = 0
	}
	if c.alpha < 0 {
		c.alpha = 0
	}
	if c.alpha > 1 {
		c.alpha = 1
	}
}
