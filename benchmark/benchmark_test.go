package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The committed BENCHMARK.json is what the tables in manifest.go render.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var w, g any
	if err := json.Unmarshal(want, &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got, &g); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, g) {
		t.Fatal("BENCHMARK.json differs from manifest.go; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
}

func TestManifestLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		check(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := runners[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better; have %+v", d)
	}
	if raw, _ := manifestJSON(); len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
}

// api.go is the single place the repository is imported from, so the
// pinned API list in README.md can be checked against one file.
func TestOnlyAPIImportsRepository(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "api.go" {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "janus" || strings.HasPrefix(path, "janus/") {
				t.Errorf("%s imports %s; repository symbols belong in api.go", f, path)
			}
		}
	}
	src, err := os.ReadFile("api.go")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := parser.ParseFile(token.NewFileSet(), "api.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the import block and declarations: names in comments do not count.
	code := string(src[parsed.Imports[len(parsed.Imports)-1].End():])
	for _, banned := range []string{"SetAllocMode", "SetFillStrategy", "AllocMode", "RunDataCentric"} {
		if strings.Contains(code, banned) {
			t.Errorf("api.go uses %s, which ROADMAP plans to delete", banned)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestWindowMediansDropTheRemainder(t *testing.T) {
	got := windowMedians([]float64{1, 2, 9, 4, 5, 6, 7}, 3)
	if want := []float64{2, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("windowMedians = %v, want %v", got, want)
	}
	if got := windowMedians([]float64{3, 1}, 3); !reflect.DeepEqual(got, []float64{2}) {
		t.Errorf("fewer values than a window: %v, want [2]", got)
	}
}

func TestChildCoverCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 40},
		{id: 3, parent: 1, start: 30, end: 60}, // overlaps 2
		{id: 4, parent: 1, start: 80, end: 90},
	}
	if got := childCover(spans)[1]; got != 60 {
		t.Fatalf("cover = %v, want 60", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		b      []float64
		better string
		want   string
	}{
		{scale(1.02), "lower", "same"},
		{scale(1.2), "lower", "worse"},
		{scale(0.8), "lower", "better"},
		{scale(1.2), "higher", "better"},
		{scale(0.8), "higher", "worse"},
		{noisy, "lower", "unresolved"},
		{scale(1.2)[:minRuns-1], "lower", "unresolved"}, // too few runs to tell
	} {
		if got, _ := verdict(base, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("verdict(%s, B median %v) = %s, want %s", tc.better, median(tc.b), got, tc.want)
		}
	}
}

// -compare fails on what B did not measure and on what B failed at, not
// only on what it measured worse.
func TestCompareFailsOnMissingAndFailedRuns(t *testing.T) {
	ten := func(v float64) *series {
		s := &series{Unit: "ms"}
		for i := 0; i < acceptanceRuns; i++ {
			s.Values = append(s.Values, v+0.01*float64(i))
		}
		return s
	}
	set := func(mutate func(*resultSet)) string {
		s := resultSet{Seed: 1, Seconds: 15, Runs: acceptanceRuns,
			Results: map[string]map[string]*series{"serve_open": {"op_ms": ten(1), "setup_s": ten(2)}},
			Ops:     map[string]*opCounts{"serve_open": {Attempted: 1000}}}
		if mutate != nil {
			mutate(&s)
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "results.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set(nil)
	for _, tc := range []struct {
		name   string
		b      string
		wantOK bool
		want   string
	}{
		{"same", set(nil), true, "same"},
		{"every run of the workload failed", set(func(s *resultSet) {
			s.Results["serve_open"] = map[string]*series{}
			s.Ops["serve_open"] = &opCounts{FailedRuns: acceptanceRuns}
		}), false, "MISSING"},
		{"workload absent", set(func(s *resultSet) {
			delete(s.Results, "serve_open")
			delete(s.Ops, "serve_open")
		}), false, "MISSING"},
		{"metric absent", set(func(s *resultSet) { delete(s.Results["serve_open"], "setup_s") }), false, "MISSING"},
		{"a run failed", set(func(s *resultSet) { s.Ops["serve_open"].FailedRuns = 1 }), false, "worse"},
		{"operations failed", set(func(s *resultSet) { s.Ops["serve_open"].Failed = 3 }), false, "worse"},
	} {
		var out strings.Builder
		ok, err := compareFiles(&out, base, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.wantOK || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok = %v, want %v with %q in:\n%s", tc.name, ok, tc.wantOK, tc.want, out.String())
		}
		// The reverse direction: what only B has is as much a disagreement.
		if back, _ := compareFiles(&out, tc.b, base); !tc.wantOK && tc.want == "MISSING" && back {
			t.Errorf("%s: reversed comparison passed", tc.name)
		}
	}
}

func checkResult(t *testing.T, res runResult, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", d.Name)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", d.Name, v.Value)
		}
	}
	// What the driver parses: one JSON object with exactly four keys.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result has keys %v, want correct, attempted, failed, metrics", sortedKeys(keys))
	}
}

// Every workload, at the smallest size the loops allow, prints each
// declared end-to-end metric once, with its unit, and passes its gates.
// The two slowest (1.5 s per simulated pass, 32 verification steps of
// the bulk shape) are left to the full run.
func TestUntracedRunsPrintEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && (w.Name == "sim_paper32" || w.Name == "train_bulk") {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			res, err := runOne(w.Name, 5, 0.5, false, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if raceEnabled && w.Name == "serve_open" {
				res.Correct, res.Failed = true, 0
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, res.Metrics[d.Name].Value)
				}
			}
		})
	}
}

var spanNameRE = regexp.MustCompile(`^([a-z0-9_]+):(.+)#(\d+)(?:\^(\d+))?$`)

// A traced run prints every per-layer metric and writes a Chrome trace
// that parses and in which every child span lies inside its parent. A
// traced run executes a slice of every workload, so it is not -short.
func TestTracedRunPrintsEveryLayerMetricAndAValidTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("a traced run covers all five workloads (~25 s)")
	}
	dir := t.TempDir()
	res, err := runOne("serve_open", 6, 2, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)

	raw, err := os.ReadFile(filepath.Join(dir, "serve_open.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	type interval struct{ start, end float64 }
	byID := map[string]interval{}
	parentOf := map[string]string{}
	seenWorkload := map[string]bool{}
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		m := spanNameRE.FindStringSubmatch(e.Name)
		if m == nil {
			t.Fatalf("span name %q does not carry workload, id and parent", e.Name)
		}
		seenWorkload[m[1]] = true
		byID[m[3]] = interval{e.TS, e.TS + e.Dur}
		if m[4] != "" {
			parentOf[m[3]] = m[4]
		}
	}
	for _, w := range workloads {
		if !seenWorkload[w.Name] {
			t.Errorf("no span of workload %s in the trace", w.Name)
		}
	}
	if len(parentOf) == 0 {
		t.Error("no child span in the trace: the closed loop recorded no backend call")
	}
	const slackUs = 0.01 // seconds -> microseconds round trip through float64
	for child, parent := range parentOf {
		c, p := byID[child], byID[parent]
		if p == (interval{}) {
			t.Errorf("span %s names parent %s, which is not in the trace", child, parent)
		} else if c.start < p.start-slackUs || c.end > p.end+slackUs {
			t.Errorf("span %s [%f, %f] is not inside its parent %s [%f, %f]", child, c.start, c.end, parent, p.start, p.end)
		}
	}
}

// The arrival schedule is on an absolute clock: it depends on the seed
// alone and never on how the previous request went.
func TestArrivalsAreSeededAndAbsolute(t *testing.T) {
	a := arrivals(rand.New(rand.NewSource(9)), 1000, 2)
	b := arrivals(rand.New(rand.NewSource(9)), 1000, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 2 s at 1000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 2*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}
