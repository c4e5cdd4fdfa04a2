// Run identity: every binary invocation mints one stable run ID at
// startup, and the same ID flows through the slog lines, the Prometheus
// senkf_run_info label, the monitor /status summary, the archive
// directory name and the bench records — so every artifact of one run
// correlates on one key.

package runlog

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"
)

// NewRunID mints a run ID of the form
//
//	<binary>-<YYYYMMDDTHHMMSSZ>-<hex8>
//
// e.g. "run-20260808T141503Z-a1b2c3d4" for senkf-run: the binary's short
// name (the "senkf-" prefix stripped), the UTC start instant at second
// resolution, and 4 random bytes telling same-second runs apart. Lexical
// order within one binary is start order only to the second: runs that
// start in the same second sort by their random suffix. entropy defaults
// to crypto/rand when nil (tests inject a fixed reader for determinism).
func NewRunID(binary string, start time.Time, entropy io.Reader) string {
	short := strings.TrimPrefix(binary, "senkf-")
	if short == "" {
		short = "run"
	}
	if entropy == nil {
		entropy = rand.Reader
	}
	var b [4]byte
	if _, err := io.ReadFull(entropy, b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a broken
		// injected reader degrades to a timestamp-only suffix.
		copy(b[:], []byte{0, 0, 0, 0})
	}
	return fmt.Sprintf("%s-%s-%s", short,
		start.UTC().Format("20060102T150405Z"), hex.EncodeToString(b[:]))
}
