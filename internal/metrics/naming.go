// Stable, class-prefixed processor names shared by every schedule and the
// trace tracks. Grouping tracks by IOPrefix or ComputePrefix works
// identically across P-EnKF, L-EnKF and S-EnKF because all of them name
// their processors through these two functions.

package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

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
	var b [32]byte
	return string(AppendComputeName(b[:0], i, j))
}

// AppendComputeName appends ComputeName(i, j) to b: a plan names all of its
// compute processors into one buffer.
func AppendComputeName(b []byte, i, j int) []byte {
	b = append(b, "comp/x"...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, 'y')
	return strconv.AppendInt(b, int64(j), 10)
}

// NameAll names n things from one buffer: name appends the i-th name to b,
// and set is given it as a substring of one string, so the n names cost one
// allocation, not n.
func NameAll(n int, name func(b []byte, i int) []byte, set func(i int, s string)) {
	var scratch [64]byte
	size := 0
	for i := range n {
		size += len(name(scratch[:0], i))
	}
	var all strings.Builder
	all.Grow(size)
	for i := range n {
		at := all.Len()
		all.Write(name(scratch[:0], i))
		set(i, all.String()[at:]) // the builder never copies what it holds
	}
}
