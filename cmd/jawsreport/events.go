package main

import (
	"fmt"
	"io"
	"time"

	"jaws/internal/metrics"
	"jaws/internal/obs"
)

// timelineSlots is the fixed resolution of the streaming cache timeline.
const timelineSlots = 32

// schedAgg accumulates one scheduler's decision statistics.
type schedAgg struct {
	atoms  int
	k      metrics.Summary
	ut, ue metrics.Summary
}

// aggregator folds trace events into bounded state as they stream by:
// every structure here is fixed-size or bounded by the event vocabulary
// (schedulers, adaptation runs), never by the trace length.
type aggregator struct {
	events int64
	maxT   time.Duration
	counts map[obs.Kind]int64

	bySched    map[string]*schedAgg
	schedOrder []string

	// Cache timeline: fixed slot count over a growing window. When an
	// event lands past the window, the slot width doubles and adjacent
	// pairs merge, so resolution degrades gracefully instead of memory
	// growing with trace length.
	slotDur      time.Duration
	hitSlots     [timelineSlots]int64
	missSlots    [timelineSlots]int64
	hits, misses int64

	alpha metrics.Series

	wait                                metrics.Summary
	blocked, admitted, edgeAdm, edgeRej int64
	reads, seqReads                     int64
	readBytes                           int64
	readCost                            metrics.Summary

	footer *obs.TraceFooter
}

func newAggregator() *aggregator {
	return &aggregator{
		counts:  make(map[obs.Kind]int64),
		bySched: make(map[string]*schedAgg),
		slotDur: time.Millisecond,
		alpha:   metrics.Series{Label: "α by adaptation run"},
	}
}

// slot buckets t into the timeline, widening the window as needed.
func (a *aggregator) slot(t time.Duration) int {
	if t < 0 {
		t = 0
	}
	for t/timelineSlots >= a.slotDur { // t >= slotDur·slots, without overflow
		for i := 0; i < timelineSlots/2; i++ {
			a.hitSlots[i] = a.hitSlots[2*i] + a.hitSlots[2*i+1]
			a.missSlots[i] = a.missSlots[2*i] + a.missSlots[2*i+1]
		}
		for i := timelineSlots / 2; i < timelineSlots; i++ {
			a.hitSlots[i], a.missSlots[i] = 0, 0
		}
		a.slotDur *= 2
	}
	return int(t / a.slotDur)
}

// add folds one event in.
func (a *aggregator) add(ev *obs.Event) {
	if ev.Kind == obs.KindFooter {
		a.footer = ev.Footer
		return // a file property, not a simulation event
	}
	a.events++
	a.counts[ev.Kind]++
	if ev.T > a.maxT {
		a.maxT = ev.T
	}
	switch ev.Kind {
	case obs.KindDecision:
		s := a.bySched[ev.Sched]
		if s == nil {
			s = &schedAgg{}
			a.bySched[ev.Sched] = s
			a.schedOrder = append(a.schedOrder, ev.Sched)
		}
		s.atoms++
		s.k.Add(float64(ev.K))
		s.ut.Add(ev.Ut)
		s.ue.Add(ev.Ue)
	case obs.KindCacheHit:
		a.hits++
		a.hitSlots[a.slot(ev.T)]++
	case obs.KindCacheMiss:
		a.misses++
		a.missSlots[a.slot(ev.T)]++
	case obs.KindAlpha:
		a.alpha.Append(float64(ev.Run), ev.Alpha)
	case obs.KindGateBlock:
		a.blocked++
	case obs.KindGateAdmit:
		a.admitted++
		a.wait.Add(ev.Wait.Seconds())
	case obs.KindEdgeAdmit:
		a.edgeAdm++
	case obs.KindEdgeReject:
		a.edgeRej++
	case obs.KindDiskRead:
		a.reads++
		if ev.Seq {
			a.seqReads++
		}
		a.readBytes += ev.Bytes
		a.readCost.Add(ev.Cost.Seconds())
	}
}

// printEvents renders the event sections: the mix by kind, decisions
// per scheduler, the cache timeline, the α trajectory, gating waits and
// the disk-read profile.
func (a *aggregator) printEvents(out io.Writer) {
	a.printKindMix(out)
	a.printDecisions(out)
	a.printCacheTimeline(out)
	a.printAlphaTrajectory(out)
	a.printGating(out)
	a.printDisk(out)
}

// printKindMix tabulates event counts by kind.
func (a *aggregator) printKindMix(out io.Writer) {
	order := []obs.Kind{
		obs.KindDecision, obs.KindCacheHit, obs.KindCacheMiss,
		obs.KindCacheEvict, obs.KindDiskRead, obs.KindEdgeAdmit,
		obs.KindEdgeReject, obs.KindGateBlock, obs.KindGateAdmit,
		obs.KindPrefetch, obs.KindAlpha, obs.KindFaultRetry,
		obs.KindFaultAbort, obs.KindNodeCrash, obs.KindStallAbort,
		obs.KindSpan,
	}
	tb := &metrics.Table{Header: []string{"kind", "events", "share"}}
	for _, k := range order {
		if a.counts[k] == 0 {
			continue
		}
		tb.AddRow(string(k), fmt.Sprintf("%d", a.counts[k]),
			fmt.Sprintf("%.1f%%", 100*float64(a.counts[k])/float64(a.events)))
	}
	fmt.Fprintln(out, "\n== event mix ==")
	fmt.Fprint(out, tb.String())
}

// printDecisions summarizes the scheduling decisions per scheduler.
func (a *aggregator) printDecisions(out io.Writer) {
	if len(a.schedOrder) == 0 {
		return
	}
	tb := &metrics.Table{Header: []string{"scheduler", "atoms", "mean k", "mean U_t", "mean U_e"}}
	for _, s := range a.schedOrder {
		g := a.bySched[s]
		tb.AddRow(s, fmt.Sprintf("%d", g.atoms),
			fmt.Sprintf("%.1f", g.k.Mean()),
			fmt.Sprintf("%.1f", g.ut.Mean()),
			fmt.Sprintf("%.1f", g.ue.Mean()))
	}
	fmt.Fprintln(out, "\n== scheduling decisions ==")
	fmt.Fprint(out, tb.String())
}

// printCacheTimeline charts the hit ratio's evolution over virtual time.
func (a *aggregator) printCacheTimeline(out io.Writer) {
	if a.hits+a.misses == 0 {
		return
	}
	fmt.Fprintln(out, "\n== cache ==")
	fmt.Fprintf(out, "overall: %.1f%% hit (%d hits / %d misses)\n",
		100*float64(a.hits)/float64(a.hits+a.misses), a.hits, a.misses)

	s := metrics.Series{Label: "hit ratio % over virtual time"}
	for i := 0; i < timelineSlots; i++ {
		h, m := a.hitSlots[i], a.missSlots[i]
		if h+m == 0 {
			continue
		}
		at := a.slotDur.Seconds() * (float64(i) + 0.5)
		s.Append(at, 100*float64(h)/float64(h+m))
	}
	if len(s.X) > 1 {
		fmt.Fprint(out, metrics.LineChart([]metrics.Series{s}, 8))
	}
}

// printAlphaTrajectory charts α over the adaptation runs.
func (a *aggregator) printAlphaTrajectory(out io.Writer) {
	if len(a.alpha.X) == 0 {
		return
	}
	fmt.Fprintln(out, "\n== adaptive age bias ==")
	fmt.Fprintf(out, "runs: %d   final α: %.3f\n", len(a.alpha.X), a.alpha.Y[len(a.alpha.Y)-1])
	if len(a.alpha.X) > 1 {
		fmt.Fprint(out, metrics.LineChart([]metrics.Series{a.alpha}, 8))
	}
}

// printGating summarizes per-query gating waits and edge decisions.
func (a *aggregator) printGating(out io.Writer) {
	if a.blocked+a.admitted+a.edgeAdm+a.edgeRej == 0 {
		return
	}
	fmt.Fprintln(out, "\n== job-aware gating ==")
	fmt.Fprintf(out, "edges: %d admitted, %d rejected\n", a.edgeAdm, a.edgeRej)
	fmt.Fprintf(out, "queries blocked: %d, later admitted: %d\n", a.blocked, a.admitted)
	if a.wait.N() > 0 {
		fmt.Fprintf(out, "gating wait: mean %.3fs  min %.3fs  max %.3fs\n",
			a.wait.Mean(), a.wait.Min(), a.wait.Max())
	}
}

// printDisk summarizes the read profile.
func (a *aggregator) printDisk(out io.Writer) {
	if a.reads == 0 {
		return
	}
	fmt.Fprintln(out, "\n== disk ==")
	fmt.Fprintf(out, "reads: %d (%.1f%% sequential), %.2f GB, mean cost %.1f ms\n",
		a.reads, 100*float64(a.seqReads)/float64(a.reads),
		float64(a.readBytes)/1e9, a.readCost.Mean()*1e3)
}
