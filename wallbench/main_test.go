package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"jaws/internal/experiments"
)

// runLine runs the command and decodes its result line.
func runLine(t *testing.T, args ...string) resultLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-root", "..", "-out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	return res
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func checkMetrics(t *testing.T, res resultLine, defs []metricDef) {
	t.Helper()
	var got []string
	for n, v := range res.Metrics {
		got = append(got, n)
		for _, d := range defs {
			if d.name == n && d.unit != v.Unit {
				t.Errorf("%s: unit %q, want %q", n, v.Unit, d.unit)
			}
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(names(defs), ",") {
		t.Errorf("metrics %v, want %v", got, names(defs))
	}
}

// A clean run on a seed other than the one the benchmark was tuned on:
// every output check passes and no request fails.
func TestCleanRunSecondSeed(t *testing.T) {
	res := runLine(t, "-workload", "serve-hit", "-seed", "2", "-seconds", "1", "-trace", "0")
	if !res.Correct || res.Failed != 0 || res.Attempted < 100 {
		t.Fatalf("serve-hit seed 2: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	checkMetrics(t, res, endToEnd)
	for _, d := range endToEnd {
		if res.Metrics[d.name].Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
		}
	}
}

func TestTracedServeRun(t *testing.T) {
	res := runLine(t, "-workload", "serve-miss", "-seed", "3", "-seconds", "1", "-trace", "1")
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced serve-miss: correct=%v failed=%d", res.Correct, res.Failed)
	}
	checkMetrics(t, res, perLayer)
	for _, n := range []string{"server.served", "sched.decisions", "store.reads", "field.interp_points", "server.execute_share"} {
		if res.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v on a traced serving run", n, res.Metrics[n].Value)
		}
	}
}

// The traced offline artifact, rebuilt from the layers' functions behind
// the scheduler decorator, encodes to the product's bytes.
func TestTracedOfflineMatchesProduct(t *testing.T) {
	s := experiments.TestScale()
	want, _, err := productArtifact(s)
	if err != nil {
		t.Fatal(err)
	}
	o := options{workload: "offline-fig8", seed: 5, seconds: time.Millisecond, log: io.Discard}
	for _, traced := range []bool{false, true} {
		o.trace = traced
		res, err := offline(o, s, want)
		if err != nil {
			t.Fatal(err)
		}
		if !res.correct || res.failed != 0 {
			t.Fatalf("trace=%v: correct=%v failed=%d", traced, res.correct, res.failed)
		}
		defs := endToEnd
		if traced {
			defs = append(append([]metricDef(nil), perLayer...), layerDetail...)
		}
		if _, err := resultJSON(res, defs); err != nil {
			t.Fatalf("trace=%v: %v", traced, err)
		}
	}
	other := append([]byte(nil), want...)
	other[len(other)/2] ^= 1
	o.trace = false
	if res, err := offline(o, s, other); err != nil || res.correct {
		t.Fatalf("a mismatching artifact must fail the run (err %v)", err)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this command
// runs and reports.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	if strings.Join(wl, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("workloads %v, command runs %v", wl, workloadNames())
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Errorf("%d metrics declared, command reports %d", len(c.declared), len(c.defs))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.defs[i].name || d.Unit != c.defs[i].unit {
				t.Errorf("metric %d: declared %s [%s], command reports %s [%s]", i, d.Name, d.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
