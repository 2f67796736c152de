package main

import (
	"fmt"
	"time"

	"jaws/internal/query"
	"jaws/internal/sched"
)

// timedSched is the traced run's scheduler decorator: it forwards every
// call to the wrapped scheduler and times Enqueue and NextBatch. Like the
// schedulers it wraps, it is driven by one goroutine.
type timedSched struct {
	inner sched.Scheduler
	tr    *tracer

	decisions   int64
	enqueues    int64
	atoms       int64 // batches (one atom each) returned by NextBatch
	decideTime  time.Duration
	enqueueTime time.Duration
}

func (s *timedSched) Name() string { return s.inner.Name() }

func (s *timedSched) Enqueue(sq *query.SubQuery, now time.Duration) {
	t0 := time.Now()
	s.inner.Enqueue(sq, now)
	s.enqueueTime += time.Since(t0)
	s.enqueues++
}

func (s *timedSched) NextBatch(now time.Duration) []sched.Batch {
	t0 := time.Now()
	bs := s.inner.NextBatch(now)
	t1 := time.Now()
	s.decideTime += t1.Sub(t0)
	s.decisions++
	s.atoms += int64(len(bs))
	s.tr.record("sched.decide", 0, 0, t0, t1)
	return bs
}

func (s *timedSched) Pending() int            { return s.inner.Pending() }
func (s *timedSched) OnRunEnd(rt, tp float64) { s.inner.OnRunEnd(rt, tp) }
func (s *timedSched) Alpha() float64          { return s.inner.Alpha() }

// Optional-interface bits, one per interface the engine probes for.
const (
	hasRV = 1 << iota // sched.ResidencyVersioned
	hasGA             // sched.GateAware
	hasUP             // sched.UtilityProvider
	hasTC             // sched.Traced
	hasEX             // sched.Explained
)

// optionalMask reports which optional scheduler interfaces s implements.
func optionalMask(s sched.Scheduler) int {
	m := 0
	if _, ok := s.(sched.ResidencyVersioned); ok {
		m |= hasRV
	}
	if _, ok := s.(sched.GateAware); ok {
		m |= hasGA
	}
	if _, ok := s.(sched.UtilityProvider); ok {
		m |= hasUP
	}
	if _, ok := s.(sched.Traced); ok {
		m |= hasTC
	}
	if _, ok := s.(sched.Explained); ok {
		m |= hasEX
	}
	return m
}

// wrapSched decorates inner with a timedSched. The returned scheduler
// implements exactly the optional interfaces inner implements: the
// engine type-asserts for them, and one gained or lost would change
// memoization, gate states or flight records. Go cannot add methods at
// run time, so each combination the repository's schedulers implement
// is spelled out, and any other is refused rather than approximated.
func wrapSched(inner sched.Scheduler, tr *tracer) (sched.Scheduler, *timedSched, error) {
	t := &timedSched{inner: inner, tr: tr}
	rv, _ := inner.(sched.ResidencyVersioned)
	ga, _ := inner.(sched.GateAware)
	up, _ := inner.(sched.UtilityProvider)
	tc, _ := inner.(sched.Traced)
	ex, _ := inner.(sched.Explained)
	type (
		RV = sched.ResidencyVersioned
		GA = sched.GateAware
		UP = sched.UtilityProvider
		TC = sched.Traced
		EX = sched.Explained
	)
	switch m := optionalMask(inner); m {
	case 0:
		return t, t, nil
	case hasTC | hasEX: // NoShare
		return struct {
			*timedSched
			TC
			EX
		}{t, tc, ex}, t, nil
	case hasRV | hasUP | hasTC | hasEX: // LifeRaft, JAWS, QoS
		return struct {
			*timedSched
			RV
			UP
			TC
			EX
		}{t, rv, up, tc, ex}, t, nil
	case hasRV | hasGA | hasUP | hasTC | hasEX: // the tail policies
		return struct {
			*timedSched
			RV
			GA
			UP
			TC
			EX
		}{t, rv, ga, up, tc, ex}, t, nil
	default:
		return nil, nil, fmt.Errorf("scheduler %s implements optional interfaces %05b, which the decorator cannot forward", inner.Name(), m)
	}
}
