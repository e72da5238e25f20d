package lockset_test

import (
	"path/filepath"
	"testing"

	"oakmap/internal/analysis"
	"oakmap/internal/analysis/analysistest"
	"oakmap/internal/analysis/lockset"
)

func TestGuardedBy(t *testing.T) {
	analysistest.Run(t, lockset.Analyzer, filepath.Join("testdata", "src", "guardedby"))
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lockset.Analyzer, filepath.Join("testdata", "src", "order"))
}

func TestPublishBefore(t *testing.T) {
	analysistest.Run(t, lockset.Analyzer, filepath.Join("testdata", "src", "publish"))
}

// TestStrictSuppress drives the analyzer with StrictSuppressions on:
// used suppressions stay silent, stale ones are reported by the
// "suppress" pseudo-analyzer, and suppressions naming analyzers outside
// the run set are skipped.
func TestStrictSuppress(t *testing.T) {
	analysistest.RunWithOptions(t, lockset.Analyzer,
		filepath.Join("testdata", "src", "strict"),
		analysis.Options{StrictSuppressions: true})
}
