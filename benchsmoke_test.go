package rdt_test

// The bench trajectory is part of the repo's contract (EXPERIMENTS.md's
// E5/E7 tables reproduce from the Benchmark* functions beside each hot
// path), so benchmark code must not rot silently: this smoke test runs
// every Benchmark* in every package for exactly one iteration.
// A benchmark that panics, Fatals, or no longer compiles fails the normal
// test suite here instead of the next time someone tries to measure.

import (
	"os/exec"
	"strings"
	"testing"
)

func TestBenchmarksSmoke(t *testing.T) {
	if !testing.Short() {
		// The smoke belongs to the -short CI lane; the race and full
		// lanes would only duplicate its nested build-and-run pass.
		t.Skip("bench smoke runs in -short mode only")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not available")
	}
	// -run '^$' selects no tests, so only benchmarks execute — the inner
	// invocation cannot recurse into this test. -short keeps soak-gated
	// setup paths fast, matching the CI short lane this runs in.
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", ".",
		"-benchtime", "1x", "-short", "-timeout", "10m", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark smoke failed: %v\n%s", err, out)
	}
	if strings.Contains(string(out), "FAIL") {
		t.Fatalf("benchmark smoke reported failures:\n%s", out)
	}
}
