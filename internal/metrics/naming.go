// Stable, class-prefixed processor names shared by every schedule and the
// trace tracks. Grouping tracks by IOPrefix or ComputePrefix works
// identically across P-EnKF, L-EnKF and S-EnKF because all of them name
// their processors through these two functions.

package metrics

import "fmt"

// IOPrefix is the name prefix of every I/O processor.
const IOPrefix = "io"

// ComputePrefix is the name prefix of every compute processor.
const ComputePrefix = "comp"

// IOName names reader r of concurrent group g: "io/g<g>/r<r>".
func IOName(g, r int) string {
	return fmt.Sprintf("io/g%d/r%d", g, r)
}

// ComputeName names the compute processor of grid cell (i, j):
// "comp/x<i>y<j>".
func ComputeName(i, j int) string {
	return fmt.Sprintf("comp/x%dy%d", i, j)
}
