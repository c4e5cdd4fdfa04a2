// Package faults defines deterministic, seeded fault plans that can be
// injected into both execution substrates of the reproduction:
//
//   - the simulated substrate (internal/sim + internal/parfs +
//     internal/schedule): per-OST outage and degraded-bandwidth windows,
//     straggler processors, member-file faults and I/O-rank deaths are
//     replayed on the discrete-event machine, so resilience can be studied
//     at the paper's 12,000-processor scale;
//   - the real execution (internal/ensio + internal/mpi + internal/core):
//     member-file faults are injected through a read hook (transient
//     errors) or by physically damaging files on disk (Apply), and I/O-rank
//     deaths drive the concurrent-group failover of the resilient S-EnKF.
//
// A Plan is pure data: evaluating it has no side effects and every
// predicate is a deterministic function of the plan, so all ranks (real
// goroutines or simulated processors) can independently agree on the same
// fault history — the "fail-stop with perfect failure detection" model that
// makes plan-driven failover deterministic and testable.
package faults

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// FileFaultKind classifies a member-file fault.
type FileFaultKind int

const (
	// FileMissing removes the member file entirely.
	FileMissing FileFaultKind = iota + 1
	// FileTruncated cuts the file short, so the size check at open fails.
	FileTruncated
	// FileCorrupt flips one payload bit, so the checksum at open fails.
	FileCorrupt
	// FileTransient makes the first Count read attempts fail with a
	// retryable error; the file itself is intact.
	FileTransient
)

// String names the kind for error messages and tables.
func (k FileFaultKind) String() string {
	switch k {
	case FileMissing:
		return "missing"
	case FileTruncated:
		return "truncated"
	case FileCorrupt:
		return "corrupt"
	case FileTransient:
		return "transient"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// FileFault is one member-file fault.
type FileFault struct {
	Member int
	Kind   FileFaultKind
	// Count, for FileTransient, is how many attempts fail before a read
	// succeeds. A Count at or above the reader's retry budget turns the
	// transient fault into a permanent one (the member is dropped).
	Count int
	// Offset, for FileTruncated/FileCorrupt, is the payload byte offset of
	// the damage; negative picks a seeded pseudo-random offset in Apply.
	Offset int64
}

// OSTWindow is a time window during which one object storage target is
// unavailable (Factor == 0) or degraded (Factor > 1 multiplies service
// time).
type OSTWindow struct {
	OST        int
	Start, End float64 // virtual seconds, half-open [Start, End)
	Factor     float64 // 0 = full outage; > 1 = service-time multiplier
}

// Straggler slows down one simulated processor: every virtual sleep of the
// named process is multiplied by Factor (≥ 1).
type Straggler struct {
	Proc   string // processor name (metrics.IOName / metrics.ComputeName)
	Factor float64
}

// ParseStraggler parses a "proc:factor" flag value (e.g. "io/g0/r0:30")
// into a Straggler. The factor is taken after the last colon, so processor
// names containing colons would still parse.
func ParseStraggler(spec string) (Straggler, error) {
	i := strings.LastIndex(spec, ":")
	if i <= 0 || i == len(spec)-1 {
		return Straggler{}, fmt.Errorf("faults: straggler %q: want proc:factor", spec)
	}
	f, err := strconv.ParseFloat(spec[i+1:], 64)
	if err != nil {
		return Straggler{}, fmt.Errorf("faults: straggler %q: %w", spec, err)
	}
	if f <= 1 {
		return Straggler{}, fmt.Errorf("faults: straggler %q: factor must be > 1", spec)
	}
	return Straggler{Proc: spec[:i], Factor: f}, nil
}

// RankDeath kills the I/O rank (Group, Reader) of the S-EnKF schedule.
// With At == 0 the rank dies right before serving stage BeforeStage (both
// substrates). With At > 0 the rank dies at the first stage boundary whose
// virtual time is ≥ At — simulation only, since the real execution has no
// virtual clock.
type RankDeath struct {
	Group, Reader int
	BeforeStage   int
	At            float64
}

// CycleCrash kills the whole process at a cycle boundary of a cycled
// experiment: right after cycle Cycle's analysis (and its checkpoint, when
// checkpointing is on) the process exits without any graceful landing — the
// harshest fault the checkpoint/resume machinery must survive.
type CycleCrash struct {
	Cycle int
}

// Plan is a deterministic, seeded fault scenario. The zero value (and a
// nil *Plan) injects nothing.
type Plan struct {
	Seed       uint64
	OSTWindows []OSTWindow
	Stragglers []Straggler
	FileFaults []FileFault
	Deaths     []RankDeath
	// Crash, when non-nil, is a whole-process kill at a cycle boundary
	// (cycled experiments only; the per-analysis substrates ignore it).
	Crash *CycleCrash
	// RetryBudget is the number of read attempts the simulated schedule
	// models before declaring a transient fault permanent; 0 means 3,
	// matching DefaultRetryBudget.
	RetryBudget int
	// OSTs, when positive, lets the real execution map member files to
	// storage targets the same way parfs does (file k lives on OST
	// k mod OSTs): reads of members on an OST with an outage window then
	// fail once with a transient error before succeeding — the outage
	// surfaces as a retried read rather than virtual queueing time.
	OSTs int
}

// DefaultRetryBudget is the attempt budget assumed when RetryBudget is 0.
const DefaultRetryBudget = 3

// Budget returns the effective retry budget.
func (pl *Plan) Budget() int {
	if pl == nil || pl.RetryBudget <= 0 {
		return DefaultRetryBudget
	}
	return pl.RetryBudget
}

// WindowAt returns the first window covering (ost, t), if any. Nil-safe.
func (pl *Plan) WindowAt(ost int, t float64) (OSTWindow, bool) {
	if pl == nil {
		return OSTWindow{}, false
	}
	for _, w := range pl.OSTWindows {
		if w.OST == ost && t >= w.Start && t < w.End {
			return w, true
		}
	}
	return OSTWindow{}, false
}

// SlowdownFor returns the straggler factor of the named processor (1 when
// the processor is not a straggler). Nil-safe.
func (pl *Plan) SlowdownFor(proc string) float64 {
	if pl == nil {
		return 1
	}
	for _, s := range pl.Stragglers {
		if s.Proc == proc && s.Factor > 1 {
			return s.Factor
		}
	}
	return 1
}

// FaultFor returns the fault of member k, if any. Nil-safe.
func (pl *Plan) FaultFor(member int) (FileFault, bool) {
	if pl == nil {
		return FileFault{}, false
	}
	for _, f := range pl.FileFaults {
		if f.Member == member {
			return f, true
		}
	}
	return FileFault{}, false
}

// Drops reports whether member k is unrecoverable under the plan's retry
// budget: missing, truncated or corrupt files, or transient faults whose
// failing-attempt count meets the budget. Nil-safe.
func (pl *Plan) Drops(member int) bool {
	f, ok := pl.FaultFor(member)
	if !ok {
		return false
	}
	if f.Kind == FileTransient {
		return f.Count >= pl.Budget()
	}
	return true
}

// CrashAfter reports whether the plan kills the process at the boundary
// after cycle i. Nil-safe.
func (pl *Plan) CrashAfter(i int) bool {
	return pl != nil && pl.Crash != nil && pl.Crash.Cycle == i
}

// DeathFor returns the death of I/O rank (g, j), if any. Nil-safe.
func (pl *Plan) DeathFor(g, j int) (RankDeath, bool) {
	if pl == nil {
		return RankDeath{}, false
	}
	for _, d := range pl.Deaths {
		if d.Group == g && d.Reader == j {
			return d, true
		}
	}
	return RankDeath{}, false
}

// DeadAt reports whether I/O rank (g, j) is dead when stage l begins at
// virtual time t. Time-based deaths (At > 0) trigger at the first stage
// boundary with t ≥ At; stage-based deaths trigger at BeforeStage. All
// processors of a group evaluate this with the same (l, t), so the group
// agrees on its live set without any communication. Nil-safe.
func (pl *Plan) DeadAt(g, j, l int, t float64) bool {
	d, ok := pl.DeathFor(g, j)
	if !ok {
		return false
	}
	if d.At > 0 {
		return t >= d.At
	}
	return l >= d.BeforeStage
}

// DeadBeforeStage is the stage-only death predicate used by the real
// execution, which has no virtual clock: time-based deaths never trigger.
func (pl *Plan) DeadBeforeStage(g, j, l int) bool {
	d, ok := pl.DeathFor(g, j)
	if !ok || d.At > 0 {
		return false
	}
	return l >= d.BeforeStage
}

// Adopt is the failover assignment of one reader at one stage, the decision
// both substrates share: the dead rows reader j of a group of n serves at
// stage l besides its own, ascending — a dead row goes to the next live
// reader cyclically after it — the ones among them that are fresh (dead at l
// but not at l−1: the one stage a failover is announced and counted), and
// whether j itself is alive; a dead reader serves nothing. dead(row, stage),
// the group's death predicate — stage-only on the real engine, stage and
// virtual time on the simulator — is the only input, so every live reader
// derives the same assignment alone.
func Adopt(j, n, l int, dead func(row, stage int) bool) (rows, fresh []int, alive bool) {
	if dead(j, l) {
		return nil, nil, false
	}
	for row := 0; row < n; row++ {
		if !dead(row, l) {
			continue
		}
		successor := (row + 1) % n
		for dead(successor, l) { // ends: j is alive
			successor = (successor + 1) % n
		}
		if successor != j {
			continue
		}
		rows = append(rows, row)
		if l == 0 || !dead(row, l-1) {
			fresh = append(fresh, row)
		}
	}
	return rows, fresh, true
}

// Validate checks the plan against an S-EnKF geometry: ncg groups of nsdy
// readers, L stages, n members, osts storage targets. It rejects plans
// that kill every reader of a group (no failover target), reference
// out-of-range members/OSTs/processors, or carry malformed windows.
func (pl *Plan) Validate(ncg, nsdy, L, n, osts int) error {
	if pl == nil {
		return nil
	}
	for _, w := range pl.OSTWindows {
		if w.OST < 0 || (osts > 0 && w.OST >= osts) {
			return fmt.Errorf("faults: OST window targets OST %d of %d", w.OST, osts)
		}
		if w.End <= w.Start || w.Start < 0 {
			return fmt.Errorf("faults: OST %d window [%g,%g) is empty or negative", w.OST, w.Start, w.End)
		}
		if w.Factor < 0 || (w.Factor > 0 && w.Factor < 1) {
			return fmt.Errorf("faults: OST %d window factor %g (want 0 for outage or ≥ 1 for degradation)", w.OST, w.Factor)
		}
	}
	for _, s := range pl.Stragglers {
		if s.Factor < 1 {
			return fmt.Errorf("faults: straggler %q factor %g < 1", s.Proc, s.Factor)
		}
	}
	seen := map[int]bool{}
	for _, f := range pl.FileFaults {
		if f.Member < 0 || (n > 0 && f.Member >= n) {
			return fmt.Errorf("faults: file fault targets member %d of %d", f.Member, n)
		}
		if seen[f.Member] {
			return fmt.Errorf("faults: duplicate file fault for member %d", f.Member)
		}
		seen[f.Member] = true
		switch f.Kind {
		case FileMissing, FileTruncated, FileCorrupt:
		case FileTransient:
			if f.Count <= 0 {
				return fmt.Errorf("faults: transient fault on member %d with count %d", f.Member, f.Count)
			}
		default:
			return fmt.Errorf("faults: member %d has unknown fault kind %d", f.Member, int(f.Kind))
		}
	}
	deadPerGroup := map[int]int{}
	for _, d := range pl.Deaths {
		if d.Group < 0 || (ncg > 0 && d.Group >= ncg) {
			return fmt.Errorf("faults: death targets group %d of %d", d.Group, ncg)
		}
		if d.Reader < 0 || (nsdy > 0 && d.Reader >= nsdy) {
			return fmt.Errorf("faults: death targets reader %d of %d", d.Reader, nsdy)
		}
		if d.At < 0 {
			return fmt.Errorf("faults: death of io/g%d/r%d at negative time %g", d.Group, d.Reader, d.At)
		}
		if d.At == 0 && (d.BeforeStage < 0 || (L > 0 && d.BeforeStage >= L)) {
			return fmt.Errorf("faults: death of io/g%d/r%d before stage %d of %d", d.Group, d.Reader, d.BeforeStage, L)
		}
		deadPerGroup[d.Group]++
	}
	if nsdy > 0 {
		for g, c := range deadPerGroup {
			if c >= nsdy {
				return fmt.Errorf("faults: all %d readers of group %d die — no failover target", nsdy, g)
			}
		}
	}
	if pl.Crash != nil && pl.Crash.Cycle < 0 {
		return fmt.Errorf("faults: crash after negative cycle %d", pl.Crash.Cycle)
	}
	return nil
}

// TransientError is the retryable read error injected by EnsioHook.
type TransientError struct {
	Member  int
	Attempt int
	Op      string
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("faults: injected transient %s error on member %d (attempt %d)", e.Op, e.Member, e.Attempt)
}

// Transient marks the error as retryable (see ensio's retry policy).
func (e *TransientError) Transient() bool { return true }

// EnsioHook returns a read hook for ensio: attempt a (0-based) on member k
// fails with a TransientError while a < Count of k's transient fault. When
// the plan carries an OSTs geometry hint, members living on an OST with an
// outage window (Factor == 0) additionally fail their first attempt — the
// real-path rendering of "the OST was briefly unreachable and the retry
// found it back". The hook is stateless — the attempt index is supplied by
// the caller — so the same plan produces the same fault history on every
// rank. Nil-safe (a nil plan returns a nil hook).
func (pl *Plan) EnsioHook() func(op string, member, attempt int) error {
	if pl == nil || (len(pl.FileFaults) == 0 && (pl.OSTs <= 0 || len(pl.OSTWindows) == 0)) {
		return nil
	}
	return func(op string, member, attempt int) error {
		if f, ok := pl.FaultFor(member); ok && f.Kind == FileTransient && attempt < f.Count {
			return &TransientError{Member: member, Attempt: attempt, Op: op}
		}
		if pl.OSTs > 0 && attempt == 0 {
			for _, w := range pl.OSTWindows {
				if w.Factor == 0 && w.OST == member%pl.OSTs {
					return &TransientError{Member: member, Attempt: attempt, Op: op}
				}
			}
		}
		return nil
	}
}

// Apply physically damages the member files in dir according to the plan's
// missing/truncated/corrupt faults (transient faults leave files intact —
// inject them through EnsioHook). Damage offsets without an explicit
// Offset are drawn from the plan's seed, so Apply is deterministic.
func (pl *Plan) Apply(dir string) error {
	if pl == nil {
		return nil
	}
	rng := pl.Seed ^ 0x5eedfa17
	for _, f := range pl.FileFaults {
		path := memberPath(dir, f.Member)
		switch f.Kind {
		case FileMissing:
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("faults: remove member %d: %w", f.Member, err)
			}
		case FileTruncated:
			fi, err := os.Stat(path)
			if err != nil {
				return fmt.Errorf("faults: stat member %d: %w", f.Member, err)
			}
			cut := f.Offset
			if cut < 0 || cut >= fi.Size() {
				cut = int64(splitmix64(&rng) % uint64(fi.Size()))
			}
			if err := os.Truncate(path, cut); err != nil {
				return fmt.Errorf("faults: truncate member %d: %w", f.Member, err)
			}
		case FileCorrupt:
			if err := flipBit(path, f.Offset, &rng); err != nil {
				return fmt.Errorf("faults: corrupt member %d: %w", f.Member, err)
			}
		case FileTransient:
			// No on-disk damage: injected via the read hook.
		}
	}
	return nil
}

// memberPath mirrors ensio.MemberPath; duplicated (it is one Sprintf) so
// this package stays dependency-free and importable from every layer.
func memberPath(dir string, k int) string {
	return fmt.Sprintf("%s%cmember_%04d.senk", dir, os.PathSeparator, k)
}

// flipBit flips one bit of the file's payload (never the 32-byte header,
// so corruption is caught by the payload checksum, not the magic check).
func flipBit(path string, off int64, rng *uint64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	const headerBytes = 32
	if fi.Size() <= headerBytes {
		return fmt.Errorf("file too small to corrupt (%d bytes)", fi.Size())
	}
	if off < 0 || headerBytes+off >= fi.Size() {
		off = int64(splitmix64(rng) % uint64(fi.Size()-headerBytes))
	}
	pos := headerBytes + off
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		return err
	}
	b[0] ^= 1 << (splitmix64(rng) % 8)
	if _, err := f.WriteAt(b[:], pos); err != nil {
		return err
	}
	return f.Sync()
}

// Geometry describes the schedule a generated plan targets.
type Geometry struct {
	OSTs    int     // storage targets of the file system
	NCg     int     // concurrent I/O groups
	NSdy    int     // readers per group
	L       int     // stages
	N       int     // ensemble members
	Horizon float64 // expected clean completion time (virtual seconds)
}

// Generate builds a seeded fault plan whose severity scales with intensity
// ∈ [0, 1]: 0 yields an empty plan, 1 yields OST outages, stragglers,
// dropped and transiently-failing members, and one I/O-rank death (when
// the geometry allows failover). The same (seed, intensity, geometry)
// always yields the same plan.
func Generate(seed uint64, intensity float64, g Geometry) *Plan {
	pl := &Plan{Seed: seed}
	if intensity <= 0 {
		return pl
	}
	pl.OSTs = g.OSTs
	if intensity > 1 {
		intensity = 1
	}
	rng := seed*0x9e3779b97f4a7c15 + 1
	horizon := g.Horizon
	if horizon <= 0 {
		horizon = 1
	}
	// OST windows: up to half the OSTs are hit; outages are short relative
	// to the horizon so that a run always makes progress.
	nWin := int(intensity*float64(g.OSTs)/2 + 0.5)
	for i := 0; i < nWin; i++ {
		ost := int(splitmix64(&rng) % uint64(max(1, g.OSTs)))
		start := frac(&rng) * 0.6 * horizon
		dur := (0.05 + 0.25*intensity*frac(&rng)) * horizon
		factor := 0.0 // outage
		if frac(&rng) < 0.5 {
			factor = 2 + 6*intensity*frac(&rng) // degraded bandwidth
		}
		pl.OSTWindows = append(pl.OSTWindows, OSTWindow{OST: ost, Start: start, End: start + dur, Factor: factor})
	}
	// Stragglers: a slice of the I/O processors run slow.
	nStrag := int(intensity*float64(g.NCg*g.NSdy)/4 + 0.5)
	for i := 0; i < nStrag; i++ {
		grp := int(splitmix64(&rng) % uint64(max(1, g.NCg)))
		rdr := int(splitmix64(&rng) % uint64(max(1, g.NSdy)))
		pl.Stragglers = append(pl.Stragglers, Straggler{
			Proc:   fmt.Sprintf("io/g%d/r%d", grp, rdr),
			Factor: 1.5 + 3*intensity*frac(&rng),
		})
	}
	// File faults: transient retries at low intensity, dropped members at
	// high intensity. At most a quarter of the ensemble is touched.
	nFile := int(intensity*float64(g.N)/4 + 0.5)
	used := map[int]bool{}
	for i := 0; i < nFile; i++ {
		k := int(splitmix64(&rng) % uint64(max(1, g.N)))
		if used[k] {
			continue
		}
		used[k] = true
		ff := FileFault{Member: k, Kind: FileTransient, Count: 1 + int(splitmix64(&rng)%2)}
		if frac(&rng) < intensity-0.4 {
			// Permanent damage: the member will be dropped.
			switch splitmix64(&rng) % 3 {
			case 0:
				ff = FileFault{Member: k, Kind: FileMissing}
			case 1:
				ff = FileFault{Member: k, Kind: FileTruncated, Offset: -1}
			default:
				ff = FileFault{Member: k, Kind: FileCorrupt, Offset: -1}
			}
		}
		pl.FileFaults = append(pl.FileFaults, ff)
	}
	sort.Slice(pl.FileFaults, func(a, b int) bool { return pl.FileFaults[a].Member < pl.FileFaults[b].Member })
	// One I/O-rank death at high intensity — only when the group has a live
	// peer to fail over to.
	if intensity >= 0.5 && g.NSdy > 1 && g.L > 1 {
		pl.Deaths = append(pl.Deaths, RankDeath{
			Group:       int(splitmix64(&rng) % uint64(max(1, g.NCg))),
			Reader:      int(splitmix64(&rng) % uint64(g.NSdy)),
			BeforeStage: 1 + int(splitmix64(&rng)%uint64(g.L-1)),
		})
	}
	return pl
}

// splitmix64 is the SplitMix64 generator — tiny, seedable, dependency-free.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// frac returns a uniform float64 in [0, 1).
func frac(x *uint64) float64 {
	return float64(splitmix64(x)>>11) / float64(1<<53)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
