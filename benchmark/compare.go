package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadSet(path string) (resultSet, error) {
	var set resultSet
	raw, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// acceptanceRuns is how many runs per workload the acceptance rule takes
// its quartiles from, and the suite's default. minRuns is the fewest that
// can resolve anything: with less, a quartile is one of the samples or an
// extrapolation beyond them.
const (
	acceptanceRuns = 10
	minRuns        = 5
)

// verdict applies a metric's bound to two sets of runs. "unresolved"
// means the medians cannot tell a regression from noise: either side has
// fewer than minRuns values, or its own run-to-run spread is wider than
// the bound. worseBy is how much worse B's median is than A's, as a share
// of A's (negative: better).
func verdict(a, b []float64, better string, bound float64) (v string, worseBy float64) {
	ma, mb := median(a), median(b)
	worseBy = (mb - ma) / ma
	if better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case len(a) < minRuns || len(b) < minRuns:
		return "unresolved", worseBy
	case spread(a) > bound || spread(b) > bound:
		return "unresolved", worseBy
	case worseBy > bound:
		return "worse", worseBy
	case worseBy < -bound:
		return "better", worseBy
	}
	return "same", worseBy
}

// exactUnit reports units whose values a deterministic simulator must
// repeat exactly, so any difference between two commits is a changed
// model and not noise.
func exactUnit(unit string) bool { return unit == unitSimMs || unit == unitRatio }

// union returns the sorted keys of either map.
func union[V any](a, b map[string]V) []string {
	all := map[string]bool{}
	for k := range a {
		all[k] = true
	}
	for k := range b {
		all[k] = true
	}
	return sortedKeys(all)
}

// compareFiles prints one row per (workload, metric) of either file and
// reports whether the two sets agree: no bounded metric worse or
// unresolved, no exact metric different, no workload or metric measured
// on one side only, and B with no larger share of failed operations and
// no more failed runs than A (ops_failed_share, bound 0 absolute).
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	if a.Seconds != b.Seconds || a.Trace != b.Trace {
		return false, fmt.Errorf("the two sets were measured differently: %gs trace=%d against %gs trace=%d",
			a.Seconds, a.Trace, b.Seconds, b.Trace)
	}
	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs); ratio = B/A with A's median as the base\n", pathA, a.Runs, pathB, b.Runs)
	fmt.Fprintf(w, "%-13s %-40s %13s %25s %13s %25s %8s %6s  %s\n",
		"workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "B/A", "bound", "verdict")
	ok := true
	for _, name := range union(a.Results, b.Results) {
		for _, metric := range union(a.Results[name], b.Results[name]) {
			sa, sb := a.Results[name][metric], b.Results[name][metric]
			if sa == nil || sb == nil || len(sa.Values) == 0 || len(sb.Values) == 0 {
				ok = false
				fmt.Fprintf(w, "%-13s %-40s MISSING: %d values in A, %d in B\n", name, metric, count(sa), count(sb))
				continue
			}
			a1, a2, a3 := quartiles(sa.Values)
			b1, b2, b3 := quartiles(sb.Values)
			bound, v := "", "-"
			if d, bounded := findMetric(endToEnd, metric); bounded {
				word, worseBy := verdict(sa.Values, sb.Values, d.Better, d.Bound)
				if word == "worse" || word == "unresolved" {
					ok = false
				}
				v = fmt.Sprintf("%s (%+.1f%% worse)", word, 100*worseBy)
				bound = fmt.Sprintf("%.2f", d.Bound)
			} else if exactUnit(sa.Unit) && a.Seed == b.Seed {
				v = "identical"
				if a2 != b2 || a1 != b1 || a3 != b3 {
					v, ok = "DIFFERS (exact metric)", false
				}
			}
			fmt.Fprintf(w, "%-13s %-40s %13.6g %12.6g..%-11.6g %13.6g %12.6g..%-11.6g %8.4f %6s  %s\n",
				name, metric, a2, a1, a3, b2, b1, b3, b2/a2, bound, v)
		}
		ca, cb := a.Ops[name], b.Ops[name]
		if ca == nil || cb == nil || len(a.Results[name]) == 0 || len(b.Results[name]) == 0 {
			ok = false
			fmt.Fprintf(w, "%-13s %-40s MISSING: the workload has no successful run on one side\n", name, "ops_failed_share")
			continue
		}
		v := "same"
		if cb.failedShare() > ca.failedShare() || cb.FailedRuns > ca.FailedRuns {
			v, ok = "worse", false
		}
		fmt.Fprintf(w, "%-13s %-40s %13.6g %25s %13.6g %25s %8s %6s  %s\n",
			name, "ops_failed_share", ca.failedShare(), fmt.Sprintf("%d runs failed", ca.FailedRuns),
			cb.failedShare(), fmt.Sprintf("%d runs failed", cb.FailedRuns), "", "0 abs", v)
	}
	return ok, nil
}

func count(s *series) int {
	if s == nil {
		return 0
	}
	return len(s.Values)
}
