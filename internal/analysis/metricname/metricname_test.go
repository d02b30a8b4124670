package metricname_test

import (
	"testing"

	"github.com/dpx10/dpx10/internal/analysis/analysistest"
	"github.com/dpx10/dpx10/internal/analysis/metricname"
)

// Each corpus declares its own Registry + instruments table, so each gets
// its own global pass.
func TestMetricnameClean(t *testing.T) {
	analysistest.RunGlobal(t, analysistest.TestData(), metricname.Analyzer, "metricname/good")
}

func TestMetricnameFindings(t *testing.T) {
	analysistest.RunGlobal(t, analysistest.TestData(), metricname.Analyzer, "metricname/bad")
}
