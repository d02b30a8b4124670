package locks_test

import (
	"testing"

	"github.com/dpx10/dpx10/internal/analysis/analysistest"
	"github.com/dpx10/dpx10/internal/analysis/locks"
)

func TestLockheld(t *testing.T) {
	analysistest.RunGlobal(t, analysistest.TestData(), locks.Lockheld, "lockheld/a")
}

func TestLockorder(t *testing.T) {
	analysistest.RunGlobal(t, analysistest.TestData(), locks.Lockorder, "lockorder/a")
}
