package metrics

import (
	"strings"
	"testing"
)

// TestNamingScheme pins the class-prefixed processor naming shared by the
// plans and the trace tracks. Changing these strings silently breaks prefix
// grouping in every trace-derived analysis and the name order the simulator
// folds its ledger in, so the exact format is asserted here.
func TestNamingScheme(t *testing.T) {
	if got := IOName(0, 0); got != "io/g0/r0" {
		t.Errorf("IOName(0,0) = %q, want io/g0/r0", got)
	}
	if got := IOName(3, 11); got != "io/g3/r11" {
		t.Errorf("IOName(3,11) = %q, want io/g3/r11", got)
	}
	if got := ComputeName(0, 0); got != "comp/x0y0" {
		t.Errorf("ComputeName(0,0) = %q, want comp/x0y0", got)
	}
	if got := ComputeName(12, 7); got != "comp/x12y7" {
		t.Errorf("ComputeName(12,7) = %q, want comp/x12y7", got)
	}
	// Every name matches its own class prefix and not the other's.
	for g := 0; g < 3; g++ {
		for r := 0; r < 3; r++ {
			n := IOName(g, r)
			if !strings.HasPrefix(n, IOPrefix) || strings.HasPrefix(n, ComputePrefix) {
				t.Errorf("IOName %q not grouped by prefix %q", n, IOPrefix)
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			n := ComputeName(i, j)
			if !strings.HasPrefix(n, ComputePrefix) || strings.HasPrefix(n, IOPrefix) {
				t.Errorf("ComputeName %q not grouped by prefix %q", n, ComputePrefix)
			}
		}
	}
}
