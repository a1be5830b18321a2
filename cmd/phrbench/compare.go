package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchDef is the part of BENCHMARK.json -compare reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict compares the runs b of a change against the runs a of its base
// for one metric. worse and better need the medians to differ by more
// than the bound. When either side's spread (interquartile range over
// median) is wider than the bound, the medians cannot resolve the bound,
// and only a complete separation of the two sets of runs gives a verdict.
func verdict(a, b []float64, m benchMetric) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	beats := func(x, y float64) bool { // x reads better than y
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	worseBy := (mb - ma) / ma
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	wide := (qa3-qa1)/ma > m.Bound || (qb3-qb1)/mb > m.Bound
	switch {
	case wide && separated(b, a, beats):
		return "better"
	case wide && separated(a, b, beats):
		return "worse"
	case wide:
		return "unresolved"
	case worseBy > m.Bound:
		return "worse"
	case worseBy < -m.Bound:
		return "better"
	}
	return "same"
}

// separated reports whether every x reads better than every y.
func separated(xs, ys []float64, beats func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(x, y) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, for each workload and end-to-end metric, both
// sides' median and quartiles and the verdict, plus the error rate, which
// must not rise. Any worse or unresolved row is an error.
func compareFiles(benchPath, pathA, pathB string, w io.Writer) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("phrbench: %s: %w", benchPath, err)
	}
	a, err := readRuns(pathA)
	if err != nil {
		return err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return err
	}
	values := func(f *runFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if r.Workload != workload || r.Trace {
				continue
			}
			if metric == "error_rate" {
				out = append(out, float64(r.Failed)/float64(r.Attempted))
			} else if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
		return out
	}
	fmt.Fprintf(w, "%-14s %-18s %30s %30s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	var bad []string
	for _, wl := range def.Workloads {
		for _, m := range append(def.EndToEnd, benchMetric{Name: "error_rate", Unit: "ratio", Better: "lower"}) {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-18s missing: %d runs in A, %d in B\n", wl.Name, m.Name, len(va), len(vb))
				bad = append(bad, wl.Name+"/"+m.Name)
				continue
			}
			qa1, ma, qa3 := quartiles(va)
			qb1, mb, qb3 := quartiles(vb)
			var v string
			if m.Name == "error_rate" {
				v = "same"
				if mb > ma {
					v = "worse"
				}
			} else {
				v = verdict(va, vb, m)
			}
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4g [%7.4g, %7.4g] %12.4g [%7.4g, %7.4g] %8s %5.0f%%  %s\n",
				wl.Name, m.Name, ma, qa1, qa3, mb, qb1, qb3, change, 100*m.Bound, v)
			if v == "worse" || v == "unresolved" {
				bad = append(bad, wl.Name+"/"+m.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("phrbench: worse, unresolved or missing: %v", bad)
	}
	return nil
}
