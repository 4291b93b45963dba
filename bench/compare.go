package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json this program reads: the
// regression bound of every end-to-end metric lives there, not here.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(repoRoot(), "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	bf := new(benchmarkFile)
	if err := json.Unmarshal(b, bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

func loadRun(path string) (*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec := new(runRecord)
	if err := json.Unmarshal(b, rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// resolution is how far a run's median can be trusted, as a share of the
// median: the inter-quartile distance of its windows over the square root
// of their number (the standard error of a median is 1.25 sigma / sqrt(n),
// and the inter-quartile distance 1.35 sigma).
func (s stat) resolution() float64 {
	if s.Median == 0 || s.N == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median / math.Sqrt(float64(s.N))
}

// compareRuns prints, per workload and end-to-end metric, both medians,
// how much worse the second is as a share of the first, the bound, and a
// verdict: "worse" past the bound, "unresolved" when either run's windows
// spread so widely that its median is uncertain by more than the bound
// (the two medians then cannot be told apart at that resolution), else
// "ok". setup_s is only ever "ok" or "worse": as in the driver's own check
// its spread is not judged, being a handful of 10-100 ms readings on 1 ms
// timers of which the first is cold. It returns the process exit code: 1 if
// any row is worse.
func compareRuns(pathA, pathB string) int {
	bf, err := loadBenchmarkFile()
	if err != nil {
		fatal("%v", err)
	}
	a, err := loadRun(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := loadRun(pathB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("a: %s  commit %s  %s\nb: %s  commit %s  %s\n", pathA, a.Host.Commit, a.Host.When, pathB, b.Host.Commit, b.Host.When)
	fmt.Printf("%-14s %-16s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	worse, unresolved := 0, 0
	for _, w := range bf.Workloads {
		ra, rb := a.Untraced[w.Name], b.Untraced[w.Name]
		if ra == nil || rb == nil {
			fmt.Printf("%-14s missing from a run record\n", w.Name)
			worse++
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, sb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			by := 0.0 // positive: b is worse
			if sa.Median != 0 {
				by = (sb.Median - sa.Median) / sa.Median
				if m.Better == "higher" {
					by = -by
				}
			}
			verdict := "ok"
			switch {
			case by > m.Bound:
				verdict = "worse"
				worse++
			case m.Name != "setup_s" && (sa.resolution() > m.Bound || sb.resolution() > m.Bound):
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, sa.Median, sb.Median, 100*by, 100*m.Bound, verdict)
		}
	}
	fmt.Printf("%d worse, %d unresolved\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}
