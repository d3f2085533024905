package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// resultSet is what the suite writes and -compare reads: every value of
// every metric, per workload, one per run.
type resultSet struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Trace      int     `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	// Results[workload][metric]; a run that failed adds no values.
	Results map[string]map[string]*series `json:"results"`
	// Ops[workload] is what ISSUE 11 calls ops_failed_share, summed over
	// the runs, failed ones included.
	Ops map[string]*opCounts `json:"ops"`
}

type opCounts struct {
	FailedRuns int   `json:"failed_runs"` // exited non-zero or printed no result
	Attempted  int64 `json:"attempted"`
	Failed     int64 `json:"failed"`
}

// failedShare is failed/attempted; a workload none of whose runs printed
// a result has failed entirely.
func (c opCounts) failedShare() float64 {
	if c.Attempted == 0 {
		return 1
	}
	return float64(c.Failed) / float64(c.Attempted)
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

// runSuite runs each workload `runs` times, one child process per run so
// every run has a fresh heap and its own VmHWM, one after the other so
// runs do not compete for the two cores.
func runSuite(names []string, seed int64, seconds float64, trace, runs int, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: seed, Seconds: seconds, Runs: runs, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Results: map[string]map[string]*series{}, Ops: map[string]*opCounts{}}
	var failures []string
	for _, name := range names {
		set.Results[name] = map[string]*series{}
		set.Ops[name] = &opCounts{}
	}
	// Round robin, so that a slow few minutes of the box touch a run or two
	// of every workload and not every run of one.
	for r := 0; r < runs; r++ {
		for _, name := range names {
			ops := set.Ops[name]
			cmd := exec.Command(self,
				"-workload", name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", outDir)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			cmd.Stderr = os.Stderr
			cmd.Env = append(os.Environ(), execEnv+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
			runErr := cmd.Run()
			res, err := lastLineResult(stdout.Bytes())
			ops.Attempted += res.Attempted
			ops.Failed += res.Failed
			if err == nil && runErr != nil {
				err = fmt.Errorf("correct=%v, %d of %d operations failed: %w", res.Correct, res.Failed, res.Attempted, runErr)
			}
			if err != nil {
				// A failed run is reported and counted, and its values are
				// left out of the set; the other runs are still worth
				// their table.
				ops.FailedRuns++
				failures = append(failures, fmt.Sprintf("%s seed %d: %v", name, seed+int64(r), err))
				continue
			}
			for metric, v := range res.Metrics {
				s := set.Results[name][metric]
				if s == nil {
					s = &series{Unit: v.Unit}
					set.Results[name][metric] = s
				}
				s.Values = append(s.Values, v.Value)
			}
		}
	}
	printSet(os.Stdout, set)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "benchmark: wrote", path)
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func lastLineResult(stdout []byte) (runResult, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return res, nil
}

// spread is the acceptance statistic: the distance between the first and
// third quartile as a share of the median. Fewer than two values have no
// spread to speak of; verdict refuses to resolve anything on so few.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func printSet(w io.Writer, set resultSet) {
	fmt.Fprintf(w, "%-13s %-40s %14s %14s %14s %8s %7s  %s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	for _, name := range sortedKeys(set.Results) {
		for _, metric := range sortedKeys(set.Results[name]) {
			s := set.Results[name][metric]
			q1, q2, q3 := quartiles(s.Values)
			bound := ""
			if d, ok := findMetric(endToEnd, metric); ok {
				bound = fmt.Sprintf("%.2f", d.Bound)
			}
			fmt.Fprintf(w, "%-13s %-40s %14.6g %14.6g %14.6g %7.2f%% %7s  %s (n=%d)\n",
				name, metric, q2, q1, q3, 100*spread(s.Values), bound, s.Unit, len(s.Values))
		}
		if c := set.Ops[name]; c != nil {
			fmt.Fprintf(w, "%-13s %-40s %14.6g %51s  share (%d of %d operations, %d of %d runs failed)\n",
				name, "ops_failed_share", c.failedShare(), "", c.Failed, c.Attempted, c.FailedRuns, set.Runs)
		}
	}
}
