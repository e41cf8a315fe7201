package all_test

import (
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/core/coretest"
)

// TestDifferentialAllKinds runs the randomized differential battery
// over every registered organization at once: the paper's five plus
// the sorted-COO and BCOO extensions. Running them simultaneously on
// the same datasets is what catches a format disagreeing with the
// others, not just with its own tests.
func TestDifferentialAllKinds(t *testing.T) {
	formats := core.Registered()
	if len(formats) < 6 {
		t.Fatalf("only %d organizations registered, want at least 6", len(formats))
	}
	coretest.RunDifferential(t, formats)
}

// TestStreamingAllKinds checks the walk contract of every registered
// organization: Each restarts and stops where told, and ScanRegion ≡
// Each + containment filter, step for step, early termination
// included.
func TestStreamingAllKinds(t *testing.T) {
	formats := core.Registered()
	if len(formats) < 6 {
		t.Fatalf("only %d organizations registered, want at least 6", len(formats))
	}
	coretest.RunStreaming(t, formats)
}
