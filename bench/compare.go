package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// minRunsPerSet is the smallest set -compare reads without a warning.
const minRunsPerSet = 3

// loadRecords reads every run record in a file (other lines — tables,
// result lines — are skipped), grouped by workload and trace mode.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Schema != recordSchema {
			continue
		}
		k := groupKey(r.Workload, r.Trace)
		out[k] = append(out[k], r)
	}
	return out, sc.Err()
}

func groupKey(workload string, trace int) string {
	if trace == 1 {
		return workload + " (traced)"
	}
	return workload
}

// workloadExercised checks that a run exercised the layer its workload is
// meant to and bypassed the other: serve-churn must repartition at least
// once per three epochs, serve-read on at most a tenth of its epochs.
func workloadExercised(r record) error {
	epochs, reconfigs, reconfigEpochs := r.Diag["epochs"], r.Diag["reconfigs"], r.Diag["reconfig_epochs"]
	switch r.Workload {
	case "serve-churn":
		if reconfigs < epochs/3 {
			return fmt.Errorf("%.0f reconfigurations in %.0f epochs (want at least one per 3 epochs)", reconfigs, epochs)
		}
	case "serve-read":
		if reconfigEpochs > epochs/10 {
			return fmt.Errorf("repartitioned on %.0f of %.0f epochs (want at most a tenth)", reconfigEpochs, epochs)
		}
	}
	return nil
}

// worseBy is how much b is worse than a as a share of a (negative when
// better), for a metric where better is "lower" or "higher".
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}

// runCompare prints every metric's median and quartiles for two sets of
// recorded runs, and fails when an end-to-end metric's median got worse
// by more than its BENCHMARK.json bound, when a run failed its checks, or
// when a serve run did not exercise the layer its workload exists for.
func runCompare(specPath, pathA, pathB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "morphbench:", err)
		return 2
	}
	bounds := spec.bounds()
	setA, err := loadRecords(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "morphbench:", err)
		return 2
	}
	setB, err := loadRecords(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "morphbench:", err)
		return 2
	}
	var problems []string
	for _, set := range []map[string][]record{setA, setB} {
		for _, rs := range set {
			for _, r := range rs {
				if !r.Correct || r.Failed > 0 {
					problems = append(problems, fmt.Sprintf("%s seed %d: run failed its checks (%d failed)", r.Workload, r.Seed, r.Failed))
				}
				if err := workloadExercised(r); err != nil {
					problems = append(problems, fmt.Sprintf("%s seed %d: %v", r.Workload, r.Seed, err))
				}
			}
		}
	}

	keys := make([]string, 0, len(setA))
	for k := range setA {
		if _, ok := setB[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		fmt.Fprintln(stderr, "morphbench: the two files share no workload")
		return 1
	}
	fmt.Fprintf(stdout, "%-24s %-28s %36s %36s %9s %7s\n", "workload", "metric", "A median [q1, q3] spread", "B median [q1, q3] spread", "B vs A", "bound")
	for _, k := range keys {
		a, b := setA[k], setB[k]
		if len(a) < minRunsPerSet || len(b) < minRunsPerSet {
			fmt.Fprintf(stderr, "morphbench: %s: %d and %d runs; comparisons want at least %d per set\n", k, len(a), len(b), minRunsPerSet)
		}
		for _, d := range defs(a[0].Trace == 1) {
			va, vb := column(a, d.Name), column(b, d.Name)
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := worseBy(a2, b2, d.Better)
			boundStr := ""
			if bound, ok := bounds[d.Name]; ok && a[0].Trace == 0 {
				boundStr = fmt.Sprintf("%.0f%%", 100*bound)
				if change > bound {
					problems = append(problems, fmt.Sprintf("%s %s: median worse by %.1f%% (bound %.0f%%)", k, d.Name, 100*change, 100*bound))
				}
			}
			fmt.Fprintf(stdout, "%-24s %-28s %12.5g [%10.5g, %10.5g] %5.1f%% %12.5g [%10.5g, %10.5g] %5.1f%% %+8.1f%% %7s\n",
				k, d.Name, a2, a1, a3, 100*spread(va), b2, b1, b3, 100*spread(vb), 100*change, boundStr)
		}
	}
	for _, p := range problems {
		fmt.Fprintln(stdout, "FAIL", p)
	}
	if len(problems) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "ok: every end-to-end median within its bound")
	return 0
}

// column extracts one metric across runs.
func column(rs []record, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name]
	}
	return out
}
