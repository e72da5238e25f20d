package pinbalance_test

import (
	"path/filepath"
	"testing"

	"oakmap/internal/analysis/analysistest"
	"oakmap/internal/analysis/pinbalance"
)

func TestPinBalance(t *testing.T) {
	analysistest.Run(t, pinbalance.Analyzer, filepath.Join("testdata", "src", "pin"))
}

func TestSnapshots(t *testing.T) {
	analysistest.Run(t, pinbalance.Analyzer, filepath.Join("testdata", "src", "snapshot"))
}
