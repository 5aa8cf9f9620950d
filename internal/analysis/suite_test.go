package analysis_test

import (
	"testing"

	"inano/internal/analysis"
	"inano/internal/analysis/analysistest"
)

func TestZeroAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"zeroalloc"}, analysis.ZeroAlloc)
}

func TestMmapAlias(t *testing.T) {
	// mmapflat declares the //inano:mmap fields; mmapuse violates the
	// contract from another package, exercising the Collect fact flow.
	analysistest.Run(t, "testdata", []string{"mmapflat", "mmapuse"}, analysis.MmapAlias)
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", []string{"lockorder"}, analysis.LockOrder)
}

func TestMetricDoc(t *testing.T) {
	defer func(p string) { analysis.MetricsPkgPath = p }(analysis.MetricsPkgPath)
	analysis.MetricsPkgPath = "fixmetrics"
	analysistest.Run(t, "testdata", []string{"fixmetrics", "metricuse"}, analysis.MetricDoc)
}
