// Command ioverlayvet runs the repo-specific invariant linter over the
// module. It checks the three middleware contracts no test catches a
// violation of — algorithm purity, hot-path hygiene and lock ordering —
// and exits nonzero on any finding. A finding is fixed, never suppressed.
//
// Usage:
//
//	ioverlayvet [-timing] [packages]
//
//	-timing              print a per-check wall-clock breakdown to stderr
//
// Package arguments are directories; the Go-style "./..." wildcard
// expands to every package under the current directory, skipping
// testdata (the linter's own fixtures are seeded violations).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	timing := flag.Bool("timing", false, "print a per-check wall-clock breakdown to stderr")
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var dirs []string
	for _, a := range args {
		if strings.HasSuffix(a, "...") {
			root := strings.TrimSuffix(strings.TrimSuffix(a, "..."), "/")
			if root == "" || root == "." {
				root = "."
			}
			expanded, err := lint.ExpandPackages(root)
			if err != nil {
				fatal(err)
			}
			dirs = append(dirs, expanded...)
			continue
		}
		dirs = append(dirs, a)
	}
	sort.Strings(dirs)

	if len(dirs) == 0 {
		return
	}
	loader, err := lint.NewLoader(dirs[0])
	if err != nil {
		fatal(err)
	}
	var pkgs []*lint.Package
	for _, d := range dirs {
		p, err := loader.Load(d)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	diags, timings := lint.RunTimed(loader, pkgs)

	if *timing {
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "ioverlayvet: %-16s %s\n", t.Check, t.Duration.Round(10*time.Microsecond))
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ioverlayvet: %v\n", err)
	os.Exit(2)
}
