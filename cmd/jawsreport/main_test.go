package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jaws/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden locks the report's rendering against golden files; run with
// -update after intentional output changes.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		fixture, golden string
		wantIntegrity   bool
	}{
		{"trace.jsonl", "trace.golden", false},
		// The truncated fixture has no footer: the report must render in
		// full AND the audit must fail with the errIntegrity exit.
		{"truncated.jsonl", "truncated.golden", true},
		{"service.jsonl", "service.golden", false},
		// Events but no spans: the event sections render on their own.
		{"nospans.jsonl", "nospans.golden", false},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			// Input fixtures live in cmd/testdata, next to the policy
			// trace the policy golden reads.
			in, err := os.Open(filepath.Join("..", "testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			defer in.Close()
			var out bytes.Buffer
			err = run(in, tc.fixture, &out, 10, "", "")
			if tc.wantIntegrity {
				if !errors.Is(err, errIntegrity) {
					t.Fatalf("err = %v, want errIntegrity", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (rerun with -update after intentional changes):\n%s", tc.golden, out.String())
			}
		})
	}
}

// TestEventSectionsGolden renders only the streaming aggregator's
// sections and locks them against their own goldens. These hold the
// event-section lines of the former standalone trace summary byte for
// byte, so the fold into this report changed none of them.
func TestEventSectionsGolden(t *testing.T) {
	for _, tc := range []struct{ fixture, golden string }{
		{"trace.jsonl", "events_trace.golden"},
		{"truncated.jsonl", "events_truncated.golden"},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "testdata", tc.fixture))
			if err != nil {
				t.Fatal(err)
			}
			agg := newAggregator()
			for i, line := range bytes.Split(data, []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				var ev obs.Event
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("line %d: %v", i+1, err)
				}
				agg.add(&ev)
			}
			var out bytes.Buffer
			agg.printEvents(&out)
			goldenPath := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("event sections differ from %s:\n%s", tc.golden, out.String())
			}
			// The full report embeds the same sections unchanged.
			fullGolden := strings.TrimSuffix(tc.fixture, ".jsonl") + ".golden"
			full, err := os.ReadFile(filepath.Join("testdata", fullGolden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(full, want) {
				t.Errorf("%s does not embed the sections of %s", fullGolden, tc.golden)
			}
		})
	}
}

// TestReqLookup exercises -req against the service fixture: a stitched
// request renders both clocks, an unstitched one falls back to the
// wall-clock side only, and an unknown ID is an error.
func TestReqLookup(t *testing.T) {
	open := func(t *testing.T) *os.File {
		in, err := os.Open(filepath.Join("..", "testdata", "service.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return in
	}

	t.Run("stitched", func(t *testing.T) {
		in := open(t)
		defer in.Close()
		var out bytes.Buffer
		if err := run(in, "service.jsonl", &out, 10, "r1111111111111111", ""); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"request r1111111111111111",
			"status 200",
			"wall    2.045s",
			"virtual 2s = gated 100ms",
			"engine  query 1 job 1: 1 decisions, 1/1 cache hit/miss",
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("stitched record missing %q:\n%s", want, out.String())
			}
		}
	})

	t.Run("unstitched", func(t *testing.T) {
		in := open(t)
		defer in.Close()
		var out bytes.Buffer
		if err := run(in, "service.jsonl", &out, 10, "r3333333333333333", ""); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"request r3333333333333333",
			"status 429",
			"virtual (no engine span carries this request ID)",
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("unstitched record missing %q:\n%s", want, out.String())
			}
		}
	})

	t.Run("unknown", func(t *testing.T) {
		in := open(t)
		defer in.Close()
		var out bytes.Buffer
		err := run(in, "service.jsonl", &out, 10, "rdeadbeefdeadbeef", "")
		if err == nil || !strings.Contains(err.Error(), "no request span") {
			t.Fatalf("unknown ID: err = %v, want a no-request-span error", err)
		}
	})
}

// TestNoSpans checks that a trace with events but no lifecycle spans
// renders its event sections and passes the audit.
func TestNoSpans(t *testing.T) {
	in, err := os.Open(filepath.Join("..", "testdata", "nospans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	var out bytes.Buffer
	if err := run(in, "nospans", &out, 10, "", ""); err != nil {
		t.Fatalf("span-free trace: %v\n%s", err, out.String())
	}
	for _, want := range []string{"== event mix ==", "== scheduling decisions ==", "== cache ==", "== disk ==", "== trace integrity =="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "== response time ==") {
		t.Errorf("span sections rendered without spans:\n%s", out.String())
	}
}

// TestEmptyTrace checks the error path for a trace with no events.
func TestEmptyTrace(t *testing.T) {
	for _, in := range []string{"", `{"t":0,"kind":"trace_footer","footer":{"total":0}}` + "\n"} {
		var out bytes.Buffer
		if err := run(strings.NewReader(in), "empty", &out, 10, "", ""); err == nil || !strings.Contains(err.Error(), "no events") {
			t.Fatalf("input %q: err = %v, want a no-events error", in, err)
		}
	}
}

// TestStreamingTimelineRescale feeds a synthetic stream whose virtual span
// vastly exceeds the timeline's initial window and checks the aggregate
// stays exact while memory stays fixed.
func TestStreamingTimelineRescale(t *testing.T) {
	var b strings.Builder
	const n = 5000
	for i := 0; i < n; i++ {
		kind := obs.KindCacheHit
		if i%4 == 0 {
			kind = obs.KindCacheMiss
		}
		// Spread events over ~83 virtual minutes: the millisecond-wide
		// initial window must double many times.
		fmt.Fprintf(&b, `{"t":%d,"kind":"%s","step":1,"code":5}`+"\n", int64(i)*1_000_000_000, kind)
	}
	var out bytes.Buffer
	if err := run(strings.NewReader(b.String()), "synthetic", &out, 10, "", ""); !errors.Is(err, errIntegrity) {
		t.Fatalf("footer-less stream: err = %v, want errIntegrity", err)
	}
	s := out.String()
	if !strings.Contains(s, fmt.Sprintf("%d hits", n-n/4)) || !strings.Contains(s, fmt.Sprintf("%d misses", n/4)) {
		t.Fatalf("hit/miss totals lost in rescaling:\n%s", s)
	}
	var hits, misses int64
	agg := newAggregator()
	for i := 0; i < n; i++ {
		ev := obs.Event{T: time.Duration(i) * time.Second, Kind: obs.KindCacheHit}
		if i%4 == 0 {
			ev.Kind = obs.KindCacheMiss
		}
		agg.add(&ev)
	}
	for i := 0; i < timelineSlots; i++ {
		hits += agg.hitSlots[i]
		misses += agg.missSlots[i]
	}
	if hits != n-n/4 || misses != n/4 {
		t.Fatalf("slot totals %d/%d after rescale, want %d/%d", hits, misses, n-n/4, n/4)
	}
	// The latest representable instant still lands in a slot.
	agg.add(&obs.Event{T: math.MaxInt64, Kind: obs.KindCacheHit})
	if agg.hits != n-n/4+1 {
		t.Fatalf("hits %d after an event at the end of time", agg.hits)
	}
}
