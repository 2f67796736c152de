package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ReqSpan is the wall-clock lifecycle record of one served HTTP request:
// the serving-layer counterpart of the engine's virtual-clock Span. Where
// a Span explains where a query's *virtual* response time went inside the
// engine (gated/queued/disk/compute), a ReqSpan explains where the *wall*
// time went around it: validation, the admission queue, worker dispatch,
// backend execution, and response writing.
//
// Attribution invariant, mirroring Span: the phase components sum exactly
// to Wall. The serving layer maintains this by construction — it keeps
// one monotonic cursor per request and charges every transition between
// lifecycle stages to exactly one phase, accumulating the same deltas
// into Wall, so no interval is ever counted twice or dropped (int64 ns,
// no float drift).
//
//   - Validate: handler entry → admission. Request decode, body and
//     parameter validation, ID assignment.
//   - Queued: admission → a worker picks the request up.
//   - Dispatch: worker pickup → the backend accepted the submission.
//   - Execute: submission → the outcome is decided (result, deadline
//     expiry, or backend death).
//   - Write: outcome → the response is written.
//
// The ID is the propagated request ID (also returned to the client in
// the X-Jaws-Request-Id header and carried by the engine span as
// Span.Req), which is what lets cmd/jawsreport stitch the wall-clock and
// virtual-clock sides of one request into a single record.
type ReqSpan struct {
	// ID is the request ID (see RequestID).
	ID string `json:"id"`
	// Query is the engine query ID the request mapped to.
	Query int64 `json:"query,omitempty"`
	// Status is the HTTP status the request was answered with.
	Status int `json:"status,omitempty"`
	// Start is the wall-clock handler-entry stamp.
	Start time.Time `json:"start"`
	// QueueDepth is the admission queue depth observed when the request
	// was accepted.
	QueueDepth int `json:"qdepth"`

	// Phase components; see the attribution invariant above.
	Validate time.Duration `json:"validate,omitempty"`
	Queued   time.Duration `json:"queued,omitempty"`
	Dispatch time.Duration `json:"dispatch,omitempty"`
	Execute  time.Duration `json:"execute,omitempty"`
	Write    time.Duration `json:"write,omitempty"`

	// Wall is the request's total wall-clock time, accumulated from the
	// same monotonic deltas as the phases (Wall == PhaseSum by
	// construction).
	Wall time.Duration `json:"wall"`

	// last is the monotonic cursor the next Mark charges from.
	last time.Time
}

// ReqPhase names one wall-clock phase of a request lifecycle.
type ReqPhase uint8

// The request phases in lifecycle order.
const (
	ReqValidate ReqPhase = iota
	ReqQueued
	ReqDispatch
	ReqExecute
	ReqWrite
)

// NewReqSpan opens a span at the current wall time. The caller holds the
// only reference until the span is handed off through a channel (the
// handoff's happens-before edge makes the cross-goroutine Marks safe).
func NewReqSpan() *ReqSpan {
	now := time.Now()
	return &ReqSpan{Start: now, last: now}
}

// SetRequest attaches the request ID and the engine query ID the request
// was assigned. Nil-safe no-op.
func (r *ReqSpan) SetRequest(id string, query int64) {
	if r == nil {
		return
	}
	r.ID = id
	r.Query = query
}

// Admit records the queue depth observed at admission and closes the
// Validate phase. Nil-safe no-op. Must be called before the span is
// handed to another goroutine.
func (r *ReqSpan) Admit(depth int) {
	if r == nil {
		return
	}
	r.QueueDepth = depth
	r.Mark(ReqValidate)
}

// Mark charges the interval since the previous mark (or Start) to phase
// p and advances the cursor. Nil-safe no-op.
func (r *ReqSpan) Mark(p ReqPhase) {
	if r == nil {
		return
	}
	now := time.Now()
	d := now.Sub(r.last)
	if d < 0 {
		d = 0 // monotonic clocks should not go backwards; belt and braces
	}
	r.last = now
	r.Wall += d
	switch p {
	case ReqValidate:
		r.Validate += d
	case ReqQueued:
		r.Queued += d
	case ReqDispatch:
		r.Dispatch += d
	case ReqExecute:
		r.Execute += d
	default:
		r.Write += d
	}
}

// Finish charges the remaining interval to Write and records the HTTP
// status the request was answered with. Nil-safe no-op.
func (r *ReqSpan) Finish(status int) {
	if r == nil {
		return
	}
	r.Mark(ReqWrite)
	r.Status = status
}

// Total is the request's wall-clock time.
func (r *ReqSpan) Total() time.Duration { return r.Wall }

// PhaseSum is the sum of the phase components; the attribution invariant
// demands PhaseSum() == Wall for every finished span.
func (r *ReqSpan) PhaseSum() time.Duration {
	return r.Validate + r.Queued + r.Dispatch + r.Execute + r.Write
}

// RequestID derives the deterministic request ID for the n-th request
// under seed (a splitmix64 mix rendered as "r" + 16 hex digits). The
// serving layer numbers requests with its query-ID counter, so for a
// fixed seed the same acceptance order yields the same IDs — which is
// what makes traces, tests, and client-side logs cross-checkable.
func RequestID(seed, n int64) string {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(n)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return fmt.Sprintf("r%016x", x)
}

// ReqPhaseTotals accumulates wall-clock phase durations across spans.
type ReqPhaseTotals struct {
	Validate time.Duration `json:"validate"`
	Queued   time.Duration `json:"queued"`
	Dispatch time.Duration `json:"dispatch"`
	Execute  time.Duration `json:"execute"`
	Write    time.Duration `json:"write"`
}

// Sum is the grand total across phases.
func (p ReqPhaseTotals) Sum() time.Duration {
	return p.Validate + p.Queued + p.Dispatch + p.Execute + p.Write
}

func (p *ReqPhaseTotals) add(r *ReqSpan) {
	p.Validate += r.Validate
	p.Queued += r.Queued
	p.Dispatch += r.Dispatch
	p.Execute += r.Execute
	p.Write += r.Write
}

// ReqSpanSummary aggregates finished request spans: wall-clock
// percentiles, per-phase attribution, and the worst-k tail.
type ReqSpanSummary struct {
	Count int
	// OK counts requests answered 200.
	OK int
	// TotalWall is Σ wall time; attribution shares are fractions of it.
	TotalWall time.Duration
	Mean      time.Duration
	P50       time.Duration
	P90       time.Duration
	P95       time.Duration
	P99       time.Duration
	Max       time.Duration
	Phases    ReqPhaseTotals
	// WorstK holds the k slowest spans, slowest first (ties broken by
	// request ID so summaries are deterministic).
	WorstK []ReqSpan
}

// Attribution returns the per-phase rows in lifecycle order.
func (s ReqSpanSummary) Attribution() []PhaseShare {
	rows := []PhaseShare{
		{Name: "validate", Total: s.Phases.Validate},
		{Name: "queued", Total: s.Phases.Queued},
		{Name: "dispatch", Total: s.Phases.Dispatch},
		{Name: "execute", Total: s.Phases.Execute},
		{Name: "write", Total: s.Phases.Write},
	}
	for i := range rows {
		if s.TotalWall > 0 {
			rows[i].Share = float64(rows[i].Total) / float64(s.TotalWall)
		}
		if s.Count > 0 {
			rows[i].MeanPerQuery = rows[i].Total / time.Duration(s.Count)
		}
	}
	return rows
}

// ReqSpanAgg collects finished request spans. All methods are nil-safe (a
// nil aggregator records nothing) and Add is safe for concurrent use, so
// every handler goroutine shares one aggregator.
type ReqSpanAgg struct {
	mu    sync.Mutex
	spans []ReqSpan
}

// NewReqSpanAgg creates an empty aggregator.
func NewReqSpanAgg() *ReqSpanAgg { return &ReqSpanAgg{} }

// Add records one finished span. Nil-safe no-op.
func (a *ReqSpanAgg) Add(r ReqSpan) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.spans = append(a.spans, r)
	a.mu.Unlock()
}

// Count returns the number of recorded spans (0 for nil).
func (a *ReqSpanAgg) Count() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.spans)
}

// Spans returns a copy of the recorded spans in recording order.
func (a *ReqSpanAgg) Spans() []ReqSpan {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]ReqSpan(nil), a.spans...)
}

// Summarize computes the aggregate view, retaining the worstK slowest
// spans (0 keeps none).
func (a *ReqSpanAgg) Summarize(worstK int) ReqSpanSummary {
	if a == nil {
		return ReqSpanSummary{}
	}
	a.mu.Lock()
	spans := append([]ReqSpan(nil), a.spans...)
	a.mu.Unlock()
	return SummarizeReqSpans(spans, worstK)
}

// SummarizeReqSpans aggregates an explicit span list (the aggregator-free
// path used by trace-reading tools). The result is deterministic
// regardless of input order.
func SummarizeReqSpans(spans []ReqSpan, worstK int) ReqSpanSummary {
	var sum ReqSpanSummary
	sum.Count = len(spans)
	if len(spans) == 0 {
		return sum
	}
	sorted := append([]ReqSpan(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if ti, tj := sorted[i].Wall, sorted[j].Wall; ti != tj {
			return ti > tj
		}
		return sorted[i].ID < sorted[j].ID
	})
	n := len(sorted)
	for i := range sorted {
		sp := &sorted[i]
		sum.TotalWall += sp.Wall
		sum.Phases.add(sp)
		if sp.Status == 200 {
			sum.OK++
		}
	}
	sum.Mean = sum.TotalWall / time.Duration(n)
	at := func(q int) time.Duration { return sorted[n-1-PercentileIndex(n, q)].Wall }
	sum.P50, sum.P90, sum.P95, sum.P99 = at(50), at(90), at(95), at(99)
	sum.Max = sorted[0].Wall
	if worstK > n {
		worstK = n
	}
	if worstK > 0 {
		sum.WorstK = append([]ReqSpan(nil), sorted[:worstK]...)
	}
	return sum
}
