// Command benchjson converts `go test -bench` text output (read from stdin)
// into a stable JSON document, so benchmark baselines can be committed and
// diffed structurally instead of as free-form text:
//
//	go test -bench 'AccessPath' -benchtime 100000x -count 5 -benchmem -run '^$' . |
//	    benchjson > BENCH_runner.json
//
// Repeated runs of one benchmark (-count N) are aggregated to the MINIMUM of
// each metric — the standard noise-floor estimator; single-iteration numbers
// jitter by multiples, which is exactly the methodology bug this replaces —
// with the run count recorded per benchmark. A benchmark with fewer than
// three runs is an error: a minimum of one or two is no noise floor.
//
// The schema is intentionally tiny: the context lines go test prints
// (goos/goarch/pkg/cpu) plus one entry per benchmark with every reported
// metric, custom b.ReportMetric units included. A FAIL anywhere in the
// stream exits non-zero — a baseline must never be refreshed from a failing
// run.
//
// Gating flags (for CI):
//
//	-baseline FILE      compare against a committed benchjson document and
//	                    fail on ns/op regressions beyond -max-regress
//	-gate REGEXP        which benchmarks the baseline comparison covers
//	                    (default AccessPath)
//	-max-regress PCT    allowed ns/op regression percentage (default 25)
//	-zero-allocs REGEXP benchmarks that must report 0 allocs/op
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchSchema versions the document; bump on any field change.
const benchSchema = "morphcache-bench/v2"

type doc struct {
	Schema     string            `json:"schema"`
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []bench           `json:"benchmarks"`
}

type bench struct {
	Name  string `json:"name"`
	Procs int    `json:"procs,omitempty"`
	// Count is the number of runs (-count) aggregated into this entry.
	Count      int   `json:"count"`
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value ("ns/op", "B/op", "allocs/op", custom
	// units), each the minimum over the aggregated runs. encoding/json
	// emits map keys sorted, so output is stable.
	Metrics map[string]float64 `json:"metrics"`
}

type options struct {
	baseline   string
	gate       string
	maxRegress float64
	zeroAllocs string
}

func main() {
	var opt options
	flag.StringVar(&opt.baseline, "baseline", "", "committed benchjson document to compare ns/op against")
	flag.StringVar(&opt.gate, "gate", "AccessPath", "regexp of benchmark names the -baseline comparison covers")
	flag.Float64Var(&opt.maxRegress, "max-regress", 25, "allowed ns/op regression percentage against -baseline")
	flag.StringVar(&opt.zeroAllocs, "zero-allocs", "", "regexp of benchmark names that must report 0 allocs/op")
	flag.Parse()
	os.Exit(run(opt, os.Stdin, os.Stdout, os.Stderr))
}

func run(opt options, stdin io.Reader, stdout, stderr io.Writer) int {
	d, err := parse(stdin)
	if err == nil {
		err = checkCounts(d)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if err := gateDoc(d, opt); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// minCount is the fewest runs a min-of-N aggregate may rest on.
const minCount = 3

// checkCounts rejects a document with any benchmark aggregated from fewer
// than minCount runs, naming each one.
func checkCounts(d *doc) error {
	var short []string
	for _, b := range d.Benchmarks {
		if b.Count < minCount {
			short = append(short, fmt.Sprintf("%s (count %d)", b.Name, b.Count))
		}
	}
	if len(short) > 0 {
		return fmt.Errorf("min-of-N needs -count %d or more: %s", minCount, strings.Join(short, ", "))
	}
	return nil
}

// gateDoc applies the CI gates to an aggregated document.
func gateDoc(d *doc, opt options) error {
	if opt.zeroAllocs != "" {
		re, err := regexp.Compile(opt.zeroAllocs)
		if err != nil {
			return fmt.Errorf("-zero-allocs: %w", err)
		}
		for _, b := range d.Benchmarks {
			if !re.MatchString(b.Name) {
				continue
			}
			allocs, ok := b.Metrics["allocs/op"]
			if !ok {
				return fmt.Errorf("%s matches -zero-allocs but reports no allocs/op (run with -benchmem)", b.Name)
			}
			if allocs != 0 {
				return fmt.Errorf("%s allocates: %v allocs/op, want 0", b.Name, allocs)
			}
		}
	}
	if opt.baseline == "" {
		return nil
	}
	re, err := regexp.Compile(opt.gate)
	if err != nil {
		return fmt.Errorf("-gate: %w", err)
	}
	raw, err := os.ReadFile(opt.baseline)
	if err != nil {
		return err
	}
	var base doc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", opt.baseline, err)
	}
	baseNs := map[string]float64{}
	for _, b := range base.Benchmarks {
		if ns, ok := b.Metrics["ns/op"]; ok {
			baseNs[b.Name] = ns
		}
	}
	compared := 0
	for _, b := range d.Benchmarks {
		if !re.MatchString(b.Name) {
			continue
		}
		ns, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		ref, ok := baseNs[b.Name]
		if !ok {
			// New benchmarks have no baseline yet; they gate on the next
			// refresh.
			continue
		}
		compared++
		if limit := ref * (1 + opt.maxRegress/100); ns > limit {
			return fmt.Errorf("%s regressed: %.0f ns/op vs baseline %.0f (>%g%% over)",
				b.Name, ns, ref, opt.maxRegress)
		}
	}
	if compared == 0 {
		return fmt.Errorf("baseline %s has no benchmark matching -gate %q to compare", opt.baseline, opt.gate)
	}
	return nil
}

// parse reads the benchmark text stream. Context lines ("key: value")
// before the first result are kept; PASS/ok trailers are ignored; any FAIL
// line is an error. Repeated results of one benchmark are aggregated to the
// minimum of each metric.
func parse(r io.Reader) (*doc, error) {
	d := &doc{Schema: benchSchema, Benchmarks: []bench{}}
	index := map[string]int{} // "name-procs" -> position in d.Benchmarks
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseResult(line)
			if err != nil {
				return nil, err
			}
			key := fmt.Sprintf("%s-%d", b.Name, b.Procs)
			if i, ok := index[key]; ok {
				merge(&d.Benchmarks[i], b)
			} else {
				index[key] = len(d.Benchmarks)
				d.Benchmarks = append(d.Benchmarks, b)
			}
		case strings.HasPrefix(line, "FAIL"):
			return nil, fmt.Errorf("input stream contains a FAIL line: %q", line)
		case strings.HasPrefix(line, "PASS"), strings.HasPrefix(line, "ok "), strings.HasPrefix(line, "ok\t"):
			// test binary trailers
		default:
			if k, v, ok := strings.Cut(line, ": "); ok && !strings.Contains(k, " ") {
				if d.Context == nil {
					d.Context = map[string]string{}
				}
				d.Context[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(d.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in input")
	}
	return d, nil
}

// merge folds another run of the same benchmark into the aggregate:
// min-of-N per metric, total run count, iterations from the fastest run.
func merge(into *bench, b bench) {
	into.Count += b.Count
	if ns, ok := b.Metrics["ns/op"]; ok {
		if cur, ok2 := into.Metrics["ns/op"]; !ok2 || ns < cur {
			into.Iterations = b.Iterations
		}
	}
	for unit, v := range b.Metrics {
		if cur, ok := into.Metrics[unit]; !ok || v < cur {
			into.Metrics[unit] = v
		}
	}
}

// parseResult decodes one "BenchmarkName-P  N  v1 u1  v2 u2 ..." line.
func parseResult(line string) (bench, error) {
	f := strings.Fields(line)
	if len(f) < 2 {
		return bench{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	b := bench{Name: f[0], Count: 1, Metrics: map[string]float64{}}
	// The -P suffix is GOMAXPROCS; absent when it is 1 or was overridden.
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return bench{}, fmt.Errorf("benchmark line %q: iterations: %w", line, err)
	}
	b.Iterations = n
	rest := f[2:]
	if len(rest)%2 != 0 {
		return bench{}, fmt.Errorf("benchmark line %q: odd value/unit pairing", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return bench{}, fmt.Errorf("benchmark line %q: value %q: %w", line, rest[i], err)
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, nil
}
