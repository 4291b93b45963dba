// Command bench is the repository's benchmark: five overlay workloads,
// each verified, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced run and direct micro timings. See
// README.md for the catalogue and BENCHMARK.json at the repository root
// for the contract a driver runs it under.
//
//	bench --workload chain16_bulk --seed 1 --seconds 16 --trace 0   one run, one JSON result line
//	bench [-out run.json]                                           all workloads, each in a child process
//	bench -compare a.json b.json                                    do two full runs agree?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all five, each in a child process)")
		seed     = flag.Int64("seed", 1, "seeds payload fill bytes and the link_churn visiting order")
		seconds  = flag.Int("seconds", defaultSeconds, "seconds of timed windows per run")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
		out      = flag.String("out", "", "all-workloads mode: write the run record here (default bench/out/run-<unix time>.json)")
		record   = flag.String("record", "", "single-workload mode: also write the full result as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two run records given as arguments; exit 1 if the second is worse")
	)
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareRuns(flag.Arg(0), flag.Arg(1)))
	case *workload == "":
		os.Exit(runAll(*seed, *seconds, *out))
	}

	s, ok := findSpec(*workload)
	if !ok {
		fatal("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		fatal("--seconds must be at least 1")
	}
	r, err := runWorkload(s, planFor(*seed, *seconds, *traceOn == 1))
	if err != nil {
		fatal("%s: %v", s.name, err)
	}
	printResult(r)
	if *record != "" {
		if err := writeJSON(*record, r); err != nil {
			fatal("%v", err)
		}
	}
	fmt.Println(resultLine(r))
	if !r.Correct {
		os.Exit(1)
	}
}

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 16

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// reported lists the metrics a run of the given kind prints.
func reported(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric by name and unit, with its spread.
func printResult(r *result) {
	kind := "end-to-end, untraced"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("# %s (%s) seed=%d engine_default_shards=%d\n", r.Workload, kind, r.Seed, r.Shards)
	for _, m := range reported(r.Traced) {
		st := r.Metrics[m.Name]
		if st.N > 1 {
			fmt.Printf("%-32s %14.4f %-6s q1=%.4f q3=%.4f min=%.4f max=%.4f n=%d\n",
				m.Name, st.Median, st.Unit, st.Q1, st.Q3, st.Min, st.Max, st.N)
		} else {
			fmt.Printf("%-32s %14.4f %-6s\n", m.Name, st.Median, st.Unit)
		}
	}
	fmt.Printf("%-32s %14d\n%-32s %14d\n", "attempted_ops", r.Attempted, "failed_ops", r.Failed)
	for _, p := range r.Problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
}

// resultLine is the one-line JSON object a driver reads: exactly the
// catalogue's metrics for this kind of run, each with value and unit.
func resultLine(r *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, map[string]mv{}}
	for _, m := range reported(r.Traced) {
		line.Metrics[m.Name] = mv{r.Metrics[m.Name].Median, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal("%v", err)
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repoRoot finds the directory holding BENCHMARK.json, looking upwards
// from the working directory; the benchmark is started from the repository
// root by run.sh and from bench/ by "go run .".
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

func outDir() string { return filepath.Join(repoRoot(), "bench", "out") }

func traceFilePath(workload string) string {
	return filepath.Join(outDir(), workload+".trace.json")
}

// runRecord is one full run of all workloads: what -compare reads and
// what bench/baseline holds.
type runRecord struct {
	Host      hostInfo           `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds_per_run"`
	Rates     map[string]int     `json:"offered_msgs_per_s"`
	WallS     float64            `json:"wall_s"`
	Untraced  map[string]*result `json:"end_to_end"`
	Traced    map[string]*result `json:"per_layer"`
	Incorrect []string           `json:"incorrect,omitempty"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Shards     int    `json:"engine_default_shards"`
	When       string `json:"when"`
}

func host() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		When:       time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = repoRoot()
	if b, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

// runAll runs every workload, untraced then traced, each in a fresh child
// process of this binary so heap and goroutines of one workload never
// reach the next.
func runAll(seed int64, seconds int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	if out == "" {
		out = filepath.Join(outDir(), fmt.Sprintf("run-%d.json", time.Now().Unix()))
	}
	rec := runRecord{
		Host: host(), Seed: seed, Seconds: seconds,
		Rates:    map[string]int{},
		Untraced: map[string]*result{}, Traced: map[string]*result{},
	}
	start := time.Now()
	tmp := out + ".part"
	defer os.Remove(tmp)
	for _, s := range specs {
		if s.rate > 0 {
			rec.Rates[s.name] = s.rate
		}
		for _, traced := range []int{0, 1} {
			cmd := exec.Command(self, "--workload", s.name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(traced), "--record", tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			r := new(result)
			b, err := os.ReadFile(tmp)
			if err == nil {
				err = json.Unmarshal(b, r)
			}
			if err != nil {
				fatal("%s trace=%d: no result (%v, %v)", s.name, traced, runErr, err)
			}
			os.Remove(tmp)
			if !r.Correct {
				rec.Incorrect = append(rec.Incorrect, fmt.Sprintf("%s trace=%d: %s", s.name, traced, strings.Join(r.Problems, "; ")))
			}
			if traced == 1 {
				rec.Traced[s.name] = r
			} else {
				rec.Untraced[s.name] = r
				rec.Host.Shards = r.Shards
			}
		}
	}
	rec.WallS = time.Since(start).Seconds()
	if err := writeJSON(out, rec); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("# run record written to %s (%.0f s)\n", out, rec.WallS)
	if len(rec.Incorrect) > 0 {
		for _, p := range rec.Incorrect {
			fmt.Printf("INCORRECT: %s\n", p)
		}
		return 1
	}
	return 0
}
