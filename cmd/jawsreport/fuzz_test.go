package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReport drives the trace reader in all three modes — the report,
// -req and -why — over arbitrary bytes. The invariant is no panic: any
// input either renders or returns an error. Crashers found here are
// kept as seeds under testdata/fuzz/FuzzReport.
func FuzzReport(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("..", "testdata", "*.jsonl"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no seed fixtures: %v", err)
	}
	for _, path := range fixtures {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// One query ID and one request ID that the fixtures carry.
		f.Add(data, "1")
		f.Add(data, "r1111111111111111")
	}

	f.Fuzz(func(t *testing.T, data []byte, id string) {
		var out bytes.Buffer
		if err := run(bytes.NewReader(data), "fuzz", &out, 3, "", ""); err == nil && !strings.HasPrefix(out.String(), "trace: fuzz ") {
			t.Fatalf("report rendered without its header:\n%s", out.String())
		}
		if id == "" {
			return
		}
		out.Reset()
		_ = run(bytes.NewReader(data), "fuzz", &out, 3, id, "")
		out.Reset()
		_ = run(bytes.NewReader(data), "fuzz", &out, 3, "", id)
	})
}
