package proc

import (
	"os"
	"testing"
)

// TestMain makes the test binary a valid worker host: when the
// coordinator re-executes it with the worker environment set,
// MaybeChildMode takes over and never returns. The parent run falls
// through to the tests.
func TestMain(m *testing.M) {
	if mode := os.Getenv(envMisbehave); mode != "" {
		if err := runMisbehavingWorker(mode); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	MaybeChildMode()
	os.Exit(m.Run())
}
