package lint

import (
	"path/filepath"
	"testing"
)

// runFixture fails the test with one error per fixture mismatch.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	problems, err := CheckFixture(a, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestCancelCheckFixtures(t *testing.T) {
	runFixture(t, CancelCheck, "testdata/cancelcheck/ralg")
	runFixture(t, CancelCheck, "testdata/cancelcheck/scj")
}

func TestAllocCheckFixtures(t *testing.T) {
	runFixture(t, AllocCheck, "testdata/alloccheck/ralg")
}

func TestWaitCheckFixtures(t *testing.T) {
	runFixture(t, WaitCheck, "testdata/waitcheck/sched")
}

func TestXQErrCheckFixtures(t *testing.T) {
	runFixture(t, XQErrCheck, "testdata/xqerrcheck")
}

func TestRuleCheckFixtures(t *testing.T) {
	runFixture(t, RuleCheck, "testdata/rulecheck/opt")
}

// The analyzers only gate on package names, so a package they do not
// know stays silent.
func TestAnalyzersSkipForeignPackages(t *testing.T) {
	p, err := LoadDir("testdata/xqerrcheck", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Analyzer{CancelCheck, WaitCheck, RuleCheck} {
		if ds := a.Run(p); len(ds) != 0 {
			t.Errorf("%s fired on package %q: %v", a.Name, p.Name, ds)
		}
	}
}

// The repository itself must lint clean: every executor loop polls, is
// reachable from a poll, or carries a justified exemption; no bare
// error-code strings. This is the same sweep
// cmd/mxqlint performs in CI, kept in-suite so `go test ./...` catches
// regressions without the extra tool invocation.
func TestRepositoryLintsClean(t *testing.T) {
	root := filepath.Join("..", "..")
	dirs, err := Dirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) < 10 {
		t.Fatalf("suspiciously few Go directories under %s: %v", root, dirs)
	}
	for _, dir := range dirs {
		p, err := LoadDir(dir, false)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if p == nil {
			continue
		}
		for _, a := range All() {
			for _, d := range a.Run(p) {
				t.Errorf("%s", d)
			}
		}
	}
}
