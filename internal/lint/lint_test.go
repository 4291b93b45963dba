package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the expectation substrings from "// want \"...\""
// markers; several markers may share a line.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// TestFixturesFlagSeededViolations runs the analyzer over every fixture
// package under testdata/src and checks the findings against the // want
// markers exactly: each marker must be matched by a diagnostic on its
// line, and each diagnostic must be covered by a marker on its line.
func TestFixturesFlagSeededViolations(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	fixtureRoot := filepath.Join("testdata", "src")
	entries, err := os.ReadDir(fixtureRoot)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	wants := make(map[string]map[int][]string) // file -> line -> substrings
	total := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(fixtureRoot, e.Name())
		p, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("load fixture %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			abs, _ := filepath.Abs(f)
			for i, line := range strings.Split(string(src), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					if wants[abs] == nil {
						wants[abs] = make(map[int][]string)
					}
					wants[abs][i+1] = append(wants[abs][i+1], m[1])
					total++
				}
			}
		}
	}
	if len(pkgs) < 12 {
		t.Fatalf("expected at least 12 fixture packages (every check covered), found %d", len(pkgs))
	}
	if total == 0 {
		t.Fatal("no want markers found in fixtures")
	}

	diags := Run(loader, pkgs)
	got := make(map[string]map[int][]string)
	for _, d := range diags {
		if got[d.Pos.Filename] == nil {
			got[d.Pos.Filename] = make(map[int][]string)
		}
		got[d.Pos.Filename][d.Pos.Line] = append(got[d.Pos.Filename][d.Pos.Line], d.Message)
	}

	for file, lines := range wants {
		for line, subs := range lines {
			for _, sub := range subs {
				matched := false
				for _, msg := range got[file][line] {
					if strings.Contains(msg, sub) {
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("%s:%d: seeded violation not flagged: want diagnostic containing %q, got %v",
						file, line, sub, got[file][line])
				}
			}
		}
	}
	for file, lines := range got {
		for line, msgs := range lines {
			for _, msg := range msgs {
				covered := false
				for _, sub := range wants[file][line] {
					if strings.Contains(msg, sub) {
						covered = true
						break
					}
				}
				if !covered {
					t.Errorf("%s:%d: unexpected diagnostic (no want marker): %s", file, line, msg)
				}
			}
		}
	}
}

// TestHotSetMustResolve: the hot set is matched by name, so a name that
// matches no function in the engine package has to surface. Fixture
// hotpath_a declares only switchOnce; presented under the engine's path,
// every other hot-set name must be reported.
func TestHotSetMustResolve(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.Load(filepath.Join("testdata", "src", "hotpath_a"))
	if err != nil {
		t.Fatal(err)
	}
	asEngine := *p
	asEngine.Path = "repro/internal/engine"
	var got []string
	checkHotPath(BuildGraph(loader), &asEngine, func(_ token.Pos, _, format string, args ...any) {
		if strings.Contains(format, "matches nothing") {
			got = append(got, fmt.Sprint(args[0]))
		}
	})
	sort.Strings(got)
	if want := "Send flushLink runDgramReader runReceiver runSender switchBatch writeInline"; strings.Join(got, " ") != want {
		t.Errorf("unresolved hot-set names = %q, want %q", got, want)
	}
}

// loadWholeModule loads every package under the module root (cmd/
// included) with one shared loader.
func loadWholeModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPackages(loader.ModuleRoot)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, d := range dirs {
		p, err := loader.Load(d)
		if err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) < 20 {
		t.Fatalf("expected to load the whole module, got only %d packages", len(pkgs))
	}
	return loader, pkgs
}

// TestShippedTreeClean is the acceptance gate for false positives: the
// real module has no findings. A finding is fixed, never suppressed. This
// is the in-test form of `make lint`.
func TestShippedTreeClean(t *testing.T) {
	loader, pkgs := loadWholeModule(t)
	for _, d := range Run(loader, pkgs) {
		t.Errorf("finding on shipped tree: %s", d)
	}
}

// TestLockOrderSeesTheTurnToken: the engine's turn token is taken with Lock
// in the arms of run's select and with a TryLock guard in switchInline, and
// held across everything a turn does. The lock-order graph must carry it —
// token before the engine's state lock, before a ring's, before a vnet
// pipe's (the turn's own wire write) — or a cycle through it would go
// unreported; and nothing may be ordered before the token.
func TestLockOrderSeesTheTurnToken(t *testing.T) {
	loader, pkgs := loadWholeModule(t)
	edges := lockOrderEdges(BuildGraph(loader), pkgs)
	const token = "engine.Engine.turnMu"
	for _, to := range []string{"engine.Engine.mu", "queue.Ring.mu", "vnet.pipe.mu"} {
		if _, ok := edges[token+"\x00"+to]; !ok {
			t.Errorf("no lock-order edge %s -> %s: the scanner does not see the token held", token, to)
		}
	}
	if _, ok := edges["engine.Engine.mu\x00queue.Ring.mu"]; !ok {
		t.Error("no lock-order edge engine.Engine.mu -> queue.Ring.mu")
	}
	for _, e := range edges {
		if e.to == token {
			t.Errorf("%s is acquired with %s held (in %s): the token comes first", token, e.from, e.witness())
		}
	}
}

// TestCmdPackagesAnalyzed pins the analyzer's coverage of the command
// tree: expanding the module root must pick up every main package under
// cmd/, and the checks must run over them in the same pass as the
// library packages.
func TestCmdPackagesAnalyzed(t *testing.T) {
	loader, pkgs := loadWholeModule(t)
	cmds := make(map[string]bool)
	for _, p := range pkgs {
		if strings.Contains(p.Path, "/cmd/") {
			cmds[p.Path] = true
			if p.Name != "main" {
				t.Errorf("package %s under cmd/ is %q, want main", p.Path, p.Name)
			}
		}
	}
	for _, want := range []string{"ioverlayvet", "inode", "iobserver"} {
		if !cmds[loader.ModulePath+"/cmd/"+want] {
			t.Errorf("cmd/%s not loaded by ExpandPackages; commands are not being linted", want)
		}
	}
	if len(cmds) < 4 {
		t.Errorf("expected at least 4 cmd packages, got %d (%v)", len(cmds), cmds)
	}
}

// TestRunTimedCoversEveryCheck pins the registry plumbing: one timing
// entry per check, in execution order, three checks total.
func TestRunTimedCoversEveryCheck(t *testing.T) {
	loader, pkgs := loadWholeModule(t)
	_, timings := RunTimed(loader, pkgs)
	names := CheckNames()
	if want := "algpurity hotpath lockorder"; strings.Join(names, " ") != want {
		t.Fatalf("registered checks = %v, want %s", names, want)
	}
	if len(timings) != len(names) {
		t.Fatalf("got %d timings for %d checks", len(timings), len(names))
	}
	for i, tm := range timings {
		if tm.Check != names[i] {
			t.Errorf("timing %d is for %q, want %q", i, tm.Check, names[i])
		}
	}
}
