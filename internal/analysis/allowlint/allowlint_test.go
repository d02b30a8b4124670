package allowlint_test

import (
	"testing"

	"github.com/dpx10/dpx10/internal/analysis/allowlint"
	"github.com/dpx10/dpx10/internal/analysis/analysistest"
)

func TestAllowlint(t *testing.T) {
	a := allowlint.New([]string{"lockheld", "lockorder", "goroleak"})
	analysistest.Run(t, analysistest.TestData(), a, "allowlint/a")
}
