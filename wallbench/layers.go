package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"jaws/internal/field"
	"jaws/internal/geom"
	"jaws/internal/job"
	"jaws/internal/jobgraph"
	"jaws/internal/query"
	"jaws/internal/store"
)

// Single-layer replays: the traced run feeds the run's own inputs through
// one layer's public functions and times them there, where a span around
// the engine call could not separate the layer from its callers.

// replayPreprocess times query.PreProcess over qs, as the engine calls it
// once per dispatched query, and returns the sub-queries.
func replayPreprocess(tr *tracer, parent int, qs []*query.Query, space geom.Space) ([]*query.SubQuery, time.Duration, error) {
	var out []*query.SubQuery
	var err error
	d := tr.time("query.preprocess", parent, func() {
		for _, q := range qs {
			var sqs []*query.SubQuery
			if sqs, err = query.PreProcess(q, space); err != nil {
				return
			}
			out = append(out, sqs...)
		}
	})
	return out, d, err
}

// replayAdmission times jobgraph.AddJobWithAtoms for the ordered jobs in
// arrival order of their first queries, into a fresh graph, with atom
// lists built as the engine builds them (clustered-key order). The
// replay admits without completions, so it bounds the engine's admission
// cost from above.
func replayAdmission(tr *tracer, parent int, jobs []*job.Job, space geom.Space) (calls int, d time.Duration, err error) {
	var ordered []*job.Job
	for _, j := range jobs {
		if j.Type == job.Ordered {
			ordered = append(ordered, j)
		}
	}
	sort.SliceStable(ordered, func(a, b int) bool {
		qa, qb := ordered[a].Queries[0], ordered[b].Queries[0]
		if qa.Arrival != qb.Arrival {
			return qa.Arrival < qb.Arrival
		}
		return ordered[a].ID < ordered[b].ID
	})
	atoms := make([][][]store.AtomID, len(ordered))
	for i, j := range ordered {
		atoms[i] = make([][]store.AtomID, len(j.Queries))
		for s, q := range j.Queries {
			set := query.Atoms(q, space)
			lst := make([]store.AtomID, 0, len(set))
			for id := range set {
				lst = append(lst, id)
			}
			sort.Slice(lst, func(a, b int) bool { return lst[a].Key() < lst[b].Key() })
			atoms[i][s] = lst
		}
	}
	g := jobgraph.New(nil)
	d = tr.time("jobgraph.admit", parent, func() {
		for i, j := range ordered {
			if err = g.AddJobWithAtoms(j.ID, atoms[i]); err != nil {
				err = fmt.Errorf("admitting job %d: %w", j.ID, err)
				return
			}
		}
	})
	return len(ordered), d, err
}

// interpSink keeps the timed interpolations from being optimized away.
var interpSink [field.Components]float64

// readInterpCost times store.Read on the primary atoms of a seeded
// sample of at most n sub-queries, then field.Interpolate on their
// points with their kernels: the mean cost of one read and of one
// interpolated point, in µs and ns.
func readInterpCost(tr *tracer, parent int, st *store.Store, sqs []*query.SubQuery, seed int64, n int) (readUS, interpNS float64, err error) {
	if len(sqs) == 0 {
		return 0, 0, nil
	}
	rng := rand.New(rand.NewSource(seed))
	sample := make([]*query.SubQuery, 0, n)
	for _, i := range rng.Perm(len(sqs)) {
		if len(sample) == n {
			break
		}
		sample = append(sample, sqs[i])
	}
	atoms := make([]*field.Atom, len(sample))
	readTime := tr.time("store.read", parent, func() {
		for i, sq := range sample {
			if atoms[i], _, err = st.Read(sq.Atom); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}
	space := st.Space()
	points := 0
	interpTime := tr.time("field.interpolate", parent, func() {
		for i, sq := range sample {
			ac := geom.AtomFromCode(sq.Atom.Code)
			for _, p := range sq.Points {
				interpSink = field.Interpolate(sq.Query.Kernel, atoms[i], space, ac, p)
				points++
			}
		}
	})
	readUS = float64(readTime) / float64(time.Microsecond) / float64(len(sample))
	if points > 0 {
		interpNS = float64(interpTime) / float64(points)
	}
	return readUS, interpNS, nil
}
