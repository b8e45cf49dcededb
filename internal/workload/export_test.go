package workload

import "testing"

// MinForkSteps reads the fork policy's step threshold.
func MinForkSteps() int64 { return minForkSteps }

// SetMinForkSteps moves the fork policy's step threshold for one test
// (0 forks at every site a boundary precedes) — the only way to vary it:
// production code has no option, flag or environment variable for it.
// Tests that call it must not run in parallel with others in this
// package.
func SetMinForkSteps(t testing.TB, n int64) {
	old := minForkSteps
	minForkSteps = n
	t.Cleanup(func() { minForkSteps = old })
}
