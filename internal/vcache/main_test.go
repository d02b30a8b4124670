package vcache

import (
	"testing"

	"github.com/dpx10/dpx10/internal/leakcheck"
)

// TestMain gates the package on goroutine hygiene: a cache owns no
// goroutines, so anything still alive after the tests is a leak.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
