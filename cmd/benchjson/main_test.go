package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

const sampleStream = `goos: linux
goarch: amd64
pkg: morphcache
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkBatchSweep 	       1	5063608700 ns/op	         2.774 mean-throughput
BenchmarkEpochStep-8 	     120	   9876543 ns/op	  123456 B/op	     789 allocs/op
PASS
ok  	morphcache	5.067s
`

func TestParse(t *testing.T) {
	d, err := parse(strings.NewReader(sampleStream))
	if err != nil {
		t.Fatal(err)
	}
	if d.Schema != benchSchema {
		t.Errorf("schema = %q, want %q", d.Schema, benchSchema)
	}
	wantCtx := map[string]string{
		"goos": "linux", "goarch": "amd64", "pkg": "morphcache",
		"cpu": "Intel(R) Xeon(R) Processor @ 2.70GHz",
	}
	if !reflect.DeepEqual(d.Context, wantCtx) {
		t.Errorf("context = %v, want %v", d.Context, wantCtx)
	}
	want := []bench{
		{Name: "BenchmarkBatchSweep", Count: 1, Iterations: 1,
			Metrics: map[string]float64{"ns/op": 5063608700, "mean-throughput": 2.774}},
		{Name: "BenchmarkEpochStep", Procs: 8, Count: 1, Iterations: 120,
			Metrics: map[string]float64{"ns/op": 9876543, "B/op": 123456, "allocs/op": 789}},
	}
	if !reflect.DeepEqual(d.Benchmarks, want) {
		t.Errorf("benchmarks = %+v, want %+v", d.Benchmarks, want)
	}
}

func TestParseRejectsFailure(t *testing.T) {
	in := "BenchmarkX 1 10 ns/op\nFAIL\nFAIL\tmorphcache\t1.0s\n"
	if _, err := parse(strings.NewReader(in)); err == nil {
		t.Error("parse accepted a FAIL stream")
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok \tmorphcache\t0.1s\n")); err == nil {
		t.Error("parse accepted a stream with no benchmark lines")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		"BenchmarkX\n",              // no iteration count
		"BenchmarkX 1 10\n",         // value without unit
		"BenchmarkX one 10 ns/op\n", // non-numeric iterations
		"BenchmarkX 1 ten ns/op\n",  // non-numeric value
	} {
		if _, err := parse(strings.NewReader(in)); err == nil {
			t.Errorf("parse accepted malformed input %q", in)
		}
	}
}

func TestRunEmitsDeterministicJSON(t *testing.T) {
	var a, b, errb bytes.Buffer
	in := strings.Repeat(sampleStream, 3)
	if code := run(options{}, strings.NewReader(in), &a, &errb); code != 0 {
		t.Fatalf("run = %d (stderr: %s)", code, errb.String())
	}
	if code := run(options{}, strings.NewReader(in), &b, &errb); code != 0 {
		t.Fatalf("run = %d (stderr: %s)", code, errb.String())
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same input produced different JSON")
	}
	var d doc
	if err := json.Unmarshal(a.Bytes(), &d); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(d.Benchmarks) != 2 {
		t.Errorf("decoded %d benchmarks, want 2", len(d.Benchmarks))
	}
}

func TestRunReportsErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(options{}, strings.NewReader("FAIL\n"), &out, &errb); code != 1 {
		t.Errorf("run(FAIL) = %d, want 1", code)
	}
	if errb.Len() == 0 {
		t.Error("failure produced no stderr diagnostics")
	}
}

const multiRunStream = `pkg: morphcache
BenchmarkAccessPath 	  100000	      1200 ns/op	      64 B/op	       1 allocs/op
BenchmarkAccessPath 	  100000	       900 ns/op	       0 B/op	       0 allocs/op
BenchmarkAccessPath 	  100000	      1100 ns/op	       0 B/op	       0 allocs/op
BenchmarkOther 	      10	 500000 ns/op
PASS
ok  	morphcache	2.0s
`

func TestParseAggregatesMinOfN(t *testing.T) {
	d, err := parse(strings.NewReader(multiRunStream))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Benchmarks) != 2 {
		t.Fatalf("aggregated to %d benchmarks, want 2", len(d.Benchmarks))
	}
	ap := d.Benchmarks[0]
	if ap.Name != "BenchmarkAccessPath" || ap.Count != 3 {
		t.Fatalf("aggregate = %+v, want BenchmarkAccessPath with count 3", ap)
	}
	if ap.Metrics["ns/op"] != 900 || ap.Metrics["allocs/op"] != 0 || ap.Metrics["B/op"] != 0 {
		t.Fatalf("min-of-N metrics wrong: %v", ap.Metrics)
	}
	if d.Benchmarks[1].Count != 1 {
		t.Fatalf("single-run count = %d, want 1", d.Benchmarks[1].Count)
	}
}

func TestZeroAllocsGate(t *testing.T) {
	var out, errb bytes.Buffer
	in := "BenchmarkAccessPath 10 100 ns/op 8 B/op 1 allocs/op\n"
	if code := run(options{zeroAllocs: "AccessPath"}, strings.NewReader(strings.Repeat(in, 3)), &out, &errb); code != 1 {
		t.Errorf("allocating access path passed the zero-allocs gate (stderr: %s)", errb.String())
	}
	out.Reset()
	errb.Reset()
	in = "BenchmarkAccessPath 10 100 ns/op 0 B/op 0 allocs/op\n"
	if code := run(options{zeroAllocs: "AccessPath"}, strings.NewReader(strings.Repeat(in, 3)), &out, &errb); code != 0 {
		t.Errorf("allocation-free run failed the gate: %s", errb.String())
	}
	// A matching benchmark without -benchmem data must fail loudly, not
	// silently pass.
	out.Reset()
	errb.Reset()
	in = "BenchmarkAccessPath 10 100 ns/op\n"
	if code := run(options{zeroAllocs: "AccessPath"}, strings.NewReader(strings.Repeat(in, 3)), &out, &errb); code != 1 {
		t.Error("missing allocs/op metric passed the zero-allocs gate")
	}
}

func TestBaselineRegressionGate(t *testing.T) {
	base := t.TempDir() + "/base.json"
	baseDoc := `{"schema":"morphcache-bench/v2","benchmarks":[
		{"name":"BenchmarkAccessPath","count":5,"iterations":100000,"metrics":{"ns/op":1000}}]}`
	if err := os.WriteFile(base, []byte(baseDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	gate := func(ns string) int {
		var out, errb bytes.Buffer
		in := strings.Repeat("BenchmarkAccessPath 100000 "+ns+" ns/op\n", 3)
		code := run(options{baseline: base, gate: "AccessPath", maxRegress: 25}, strings.NewReader(in), &out, &errb)
		if code != 0 && errb.Len() == 0 {
			t.Error("gate failure produced no stderr diagnostics")
		}
		return code
	}
	if code := gate("1200"); code != 0 {
		t.Error("a 20% regression should pass the 25% gate")
	}
	if code := gate("1300"); code != 1 {
		t.Error("a 30% regression must fail the 25% gate")
	}
	if code := gate("600"); code != 0 {
		t.Error("an improvement must pass")
	}
	// A baseline with no matching benchmark is a misconfiguration, not a
	// pass.
	var out, errb bytes.Buffer
	in := "BenchmarkUnrelated 10 100 ns/op\n"
	if code := run(options{baseline: base, gate: "Unrelated", maxRegress: 25}, strings.NewReader(strings.Repeat(in, 3)), &out, &errb); code != 1 {
		t.Error("comparison with zero matches must fail")
	}
}

func TestRunRejectsFewerThanThreeRuns(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
	}{
		{strings.Repeat("BenchmarkAccessPath 10 100 ns/op\n", 3), 0},
		{strings.Repeat("BenchmarkAccessPath 10 100 ns/op\n", 3) + "BenchmarkBatchSweep 1 5000 ns/op\n", 1},
		{strings.Repeat("BenchmarkAccessPath 10 100 ns/op\nBenchmarkBatchSweep 1 5000 ns/op\n", 2) + "BenchmarkAccessPath 10 90 ns/op\n", 1},
	} {
		var out, errb bytes.Buffer
		if code := run(options{}, strings.NewReader(tc.in), &out, &errb); code != tc.want {
			t.Fatalf("run(%q) = %d, want %d (stderr: %s)", tc.in, code, tc.want, errb.String())
		}
		if tc.want == 0 {
			continue
		}
		if msg := errb.String(); !strings.Contains(msg, "BenchmarkBatchSweep") || strings.Contains(msg, "BenchmarkAccessPath") {
			t.Errorf("error names the wrong benchmarks: %s", msg)
		}
		if out.Len() != 0 {
			t.Errorf("a rejected stream still produced a document: %s", out.String())
		}
	}
}
