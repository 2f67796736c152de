package obs

import (
	"sort"
	"sync"
	"time"
)

// Span is the complete lifecycle record of one query: arrived → gated →
// eligible → batched → served → done, with the query's total response
// time attributed exhaustively to phases measured on the virtual clock.
//
// Attribution invariant: the phase components sum exactly to the total
// response time (Done − Arrival). The engine maintains this by charging
// every virtual-clock advance that occurs while the query is in flight to
// exactly one phase:
//
//   - Gated: arrival → dispatch into the workload queues. Covers both
//     job-aware gate holds (the precedence graph kept the query out of
//     the QUEUE state) and plain admission latency (the engine was busy
//     executing when the query arrived). Blocked distinguishes the two.
//   - Queued: dispatched and waiting — either no decision is executing,
//     or the executing decision serves other queries' atoms.
//   - Overhead: the fixed per-decision submission cost of decisions that
//     served this query (amortized across the batch, charged in full to
//     each member: batched service is shared, not divided).
//   - Disk: disk reads, failure-detection latency, and retry backoff
//     charged by decisions that served this query.
//   - Compute: kernel-evaluation time charged by decisions that served
//     this query.
//
// A decision "serves" a query when at least one of the query's
// sub-queries is in the decision's batches; all members of a decision see
// the same Overhead/Disk/Compute charges, reflecting that I/O sharing is
// exactly what the scheduler is trying to maximize.
type Span struct {
	Query int64 `json:"query"`
	Job   int64 `json:"job,omitempty"`
	Seq   int   `json:"seq,omitempty"`
	// Req is the originating HTTP request ID when the query entered
	// through the serving layer (empty for batch workloads). It is the
	// key cmd/jawsreport uses to stitch this virtual-clock span to the
	// request's wall-clock ReqSpan.
	Req string `json:"req,omitempty"`

	// Arrival and Done bound the lifecycle in virtual time.
	Arrival time.Duration `json:"arr"`
	Done    time.Duration `json:"done"`

	// Phase components; see the attribution invariant above.
	Gated    time.Duration `json:"gated,omitempty"`
	Queued   time.Duration `json:"queued,omitempty"`
	Overhead time.Duration `json:"sovh,omitempty"`
	Disk     time.Duration `json:"sdisk,omitempty"`
	Compute  time.Duration `json:"scomp,omitempty"`

	// Decisions counts the scheduling decisions that served this query;
	// Hits/Misses count the cache lookups those decisions performed
	// (shared across every query the decision served).
	Decisions int `json:"dec,omitempty"`
	Hits      int `json:"hits,omitempty"`
	Misses    int `json:"miss,omitempty"`

	// Blocked reports that job-aware gating held the query back at least
	// once (the Gated phase then measures a true gate hold).
	Blocked bool `json:"blocked,omitempty"`
}

// Total is the query's response time.
func (s *Span) Total() time.Duration { return s.Done - s.Arrival }

// PhaseSum is the sum of the phase components; the attribution invariant
// demands PhaseSum() == Total() for every completed span.
func (s *Span) PhaseSum() time.Duration {
	return s.Gated + s.Queued + s.Overhead + s.Disk + s.Compute
}

// PhaseTotals accumulates phase durations across spans.
type PhaseTotals struct {
	Gated    time.Duration `json:"gated"`
	Queued   time.Duration `json:"queued"`
	Overhead time.Duration `json:"overhead"`
	Disk     time.Duration `json:"disk"`
	Compute  time.Duration `json:"compute"`
}

// Sum is the grand total across phases.
func (p PhaseTotals) Sum() time.Duration {
	return p.Gated + p.Queued + p.Overhead + p.Disk + p.Compute
}

// add folds one span's components in.
func (p *PhaseTotals) add(s *Span) {
	p.Gated += s.Gated
	p.Queued += s.Queued
	p.Overhead += s.Overhead
	p.Disk += s.Disk
	p.Compute += s.Compute
}

// PhaseShare is one row of an attribution table.
type PhaseShare struct {
	Name  string
	Total time.Duration
	// Share is Total's fraction of the summed response time (0 when the
	// summary is empty).
	Share float64
	// MeanPerQuery is Total / span count.
	MeanPerQuery time.Duration
}

// SpanSummary aggregates completed spans: response-time percentiles, the
// per-phase attribution totals, and the starvation tail (the worst-k
// spans by response time — the very queries the α-tuner exists to rescue).
type SpanSummary struct {
	Count   int
	Blocked int
	// TotalResponse is Σ response time; the attribution shares are
	// fractions of it.
	TotalResponse time.Duration
	Mean          time.Duration
	P50           time.Duration
	P90           time.Duration
	P95           time.Duration
	P99           time.Duration
	Max           time.Duration
	Phases        PhaseTotals
	// WorstK holds the k slowest spans, slowest first (ties broken by
	// query id so summaries are deterministic).
	WorstK []Span
}

// Attribution returns the per-phase rows in canonical lifecycle order.
func (s SpanSummary) Attribution() []PhaseShare {
	rows := []PhaseShare{
		{Name: "gated", Total: s.Phases.Gated},
		{Name: "queued", Total: s.Phases.Queued},
		{Name: "overhead", Total: s.Phases.Overhead},
		{Name: "disk", Total: s.Phases.Disk},
		{Name: "compute", Total: s.Phases.Compute},
	}
	for i := range rows {
		if s.TotalResponse > 0 {
			rows[i].Share = float64(rows[i].Total) / float64(s.TotalResponse)
		}
		if s.Count > 0 {
			rows[i].MeanPerQuery = rows[i].Total / time.Duration(s.Count)
		}
	}
	return rows
}

// SpanAgg collects completed spans. All methods are nil-safe (a nil
// aggregator records nothing), and Add is safe for concurrent use so
// per-node engines can share one aggregator if a caller chooses to.
type SpanAgg struct {
	mu    sync.Mutex
	spans []Span
}

// NewSpanAgg creates an empty aggregator.
func NewSpanAgg() *SpanAgg { return &SpanAgg{} }

// Add records one completed span. Nil-safe no-op.
func (a *SpanAgg) Add(s Span) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.spans = append(a.spans, s)
	a.mu.Unlock()
}

// Merge folds other's spans into a (per-node → cluster aggregation).
// Nil-safe in both directions.
func (a *SpanAgg) Merge(other *SpanAgg) {
	if a == nil || other == nil {
		return
	}
	other.mu.Lock()
	spans := append([]Span(nil), other.spans...)
	other.mu.Unlock()
	a.mu.Lock()
	a.spans = append(a.spans, spans...)
	a.mu.Unlock()
}

// Count returns the number of recorded spans (0 for nil).
func (a *SpanAgg) Count() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (a *SpanAgg) Spans() []Span {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Span(nil), a.spans...)
}

// Summarize computes the aggregate view, retaining the worstK slowest
// spans (0 keeps none). The result is deterministic regardless of the
// order spans were added in.
func (a *SpanAgg) Summarize(worstK int) SpanSummary {
	var sum SpanSummary
	if a == nil {
		return sum
	}
	a.mu.Lock()
	spans := append([]Span(nil), a.spans...)
	a.mu.Unlock()
	return SummarizeSpans(spans, worstK)
}

// PercentileIndex is the tree's one percentile rule: the nearest-rank
// index n*q/100 of the q-th percentile in an ascending order of n > 0
// values (q = 100 and above clamp to the maximum). A descending order
// reads the same rank at n-1-PercentileIndex(n, q).
func PercentileIndex(n, q int) int {
	if i := n * q / 100; i < n {
		return i
	}
	return n - 1
}

// SummarizeSpans aggregates an explicit span list (the aggregator-free
// path used by trace-reading tools).
func SummarizeSpans(spans []Span, worstK int) SpanSummary {
	var sum SpanSummary
	sum.Count = len(spans)
	if len(spans) == 0 {
		return sum
	}
	// Sort slowest-first with a deterministic tie-break; percentiles read
	// from the tail, WorstK from the head.
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if ti, tj := sorted[i].Total(), sorted[j].Total(); ti != tj {
			return ti > tj
		}
		return sorted[i].Query < sorted[j].Query
	})
	n := len(sorted)
	for i := range sorted {
		sp := &sorted[i]
		sum.TotalResponse += sp.Total()
		sum.Phases.add(sp)
		if sp.Blocked {
			sum.Blocked++
		}
	}
	sum.Mean = sum.TotalResponse / time.Duration(n)
	// sorted is descending, so ranks count from the tail.
	at := func(q int) time.Duration { return sorted[n-1-PercentileIndex(n, q)].Total() }
	sum.P50, sum.P90, sum.P95, sum.P99 = at(50), at(90), at(95), at(99)
	sum.Max = sorted[0].Total()
	if worstK > n {
		worstK = n
	}
	if worstK > 0 {
		sum.WorstK = append([]Span(nil), sorted[:worstK]...)
	}
	return sum
}
