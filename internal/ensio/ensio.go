// Package ensio implements the on-disk format of background ensemble
// members and the two access patterns the paper contrasts in §4.1:
//
//   - block reading (Figure 3): a processor reads its sub-domain rectangle
//     out of every member file; the rectangle is strided across latitude
//     rows, so it costs one disk-addressing operation per row — the
//     O(n_y × n_sdx) addressing blow-up of §4.1.1;
//   - bar reading (Figure 6): an I/O processor reads a contiguous range of
//     full latitude rows ("bar") with a single addressing operation.
//
// A member file is a small fixed header followed by the n_y × n_x field in
// row-major float64 little-endian order, exactly the "row priority" layout
// the paper assumes. Readers count addressing operations (seeks) and bytes
// so tests and benches can verify the seek asymmetry on real files.
//
// Integrity and fault tolerance (format version 2): the header carries a
// CRC-64 checksum of the payload, so single-bit corruption and silent
// truncation are detected instead of silently assimilated; reads can be
// wrapped with a bounded retry-with-backoff policy and a fault-injection
// hook, so transient storage errors are survived and testable. Version-1
// files (no checksum) remain readable.
package ensio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"time"

	"senkf/internal/grid"
	"senkf/internal/par"
)

// Magic identifies a member file.
const Magic = "SENK"

// Version is the current format version. Version 2 appends a CRC-64
// (ECMA) payload checksum to the version-1 header; version-1 files are
// still read (without integrity verification).
const Version = 2

const (
	// headerSizeV1 is the version-1 header:
	// magic(4) + version(4) + nx(4) + ny(4) + member(4) + levels(4).
	headerSizeV1 = 24
	// headerSizeV2 adds the payload checksum(8).
	headerSizeV2 = 32
	// checksumOffset is the byte offset of the checksum in a v2 header.
	checksumOffset = 24
)

// crcTable is the CRC-64 polynomial used for payload checksums.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Header describes a member file.
type Header struct {
	NX, NY int
	Member int // member index k (0-based)
	// Levels is the number of vertical levels interleaved per grid point;
	// 0 is treated as 1 (see LevelCount).
	Levels int
	// Checksum is the CRC-64 (ECMA) of the payload bytes; meaningful only
	// when HasChecksum is true (version-2 files).
	Checksum    uint64
	HasChecksum bool
}

// IOStats accumulates access accounting for one open file.
type IOStats struct {
	Seeks     int   // disk addressing operations (one per contiguous request)
	BytesRead int64 // payload bytes read
	Reads     int   // read requests issued
	Retries   int   // failed attempts that were retried
}

// payloadBytes returns the size of the payload the header declares, and
// false if it is more than a file can hold: the three factors come from the
// file, and a product that wraps must not pass for a small one.
func (h Header) payloadBytes() (int64, bool) {
	points := uint64(h.NX) * uint64(h.NY) // each below 2³²
	hi, n := bits.Mul64(points, 8*uint64(h.LevelCount()))
	return int64(n), hi == 0 && n <= math.MaxInt64-headerSizeV2
}

// MemberPath returns the canonical file name of member k inside dir.
func MemberPath(dir string, k int) string {
	return filepath.Join(dir, fmt.Sprintf("member_%04d.senk", k))
}

// putHeader serializes h (with the given level count and payload checksum)
// into dst, a v2 header block.
func putHeader(dst []byte, h Header, levels int, checksum uint64) {
	copy(dst[0:4], Magic)
	binary.LittleEndian.PutUint32(dst[4:8], Version)
	binary.LittleEndian.PutUint32(dst[8:12], uint32(h.NX))
	binary.LittleEndian.PutUint32(dst[12:16], uint32(h.NY))
	binary.LittleEndian.PutUint32(dst[16:20], uint32(h.Member))
	binary.LittleEndian.PutUint32(dst[20:24], uint32(levels))
	binary.LittleEndian.PutUint64(dst[checksumOffset:headerSizeV2], checksum)
}

// atomicCreate writes a member file crash-consistently: the image is
// staged into a hidden temp file in the same directory, synced to stable
// storage, and renamed over path in one atomic step — a crash mid-write
// can leave a stale temp file behind, but never a partial file behind a
// valid member path. (Durability of the rename itself is the caller's
// concern: checkpoint writers fsync the containing directory once after
// staging a whole ensemble.)
func atomicCreate(path string, image []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return fmt.Errorf("ensio: create: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	// One positional write of the whole image. On a fresh temp file it is
	// what Write would do; it is WriteAt because the streaming writers this
	// replaced used WriteAt (to patch the checksum), and dropping the last
	// use drops the pwrite path from every binary, which moves the linalg
	// and enkf text by 32 bytes — enough to cost the dense workload 15%
	// (EXPERIMENTS.md, "Record: PR 17", the parity experiment).
	if _, err := f.WriteAt(image, 0); err != nil {
		return fmt.Errorf("ensio: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("ensio: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("ensio: close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ensio: rename: %w", err)
	}
	tmp = ""
	return nil
}

// encodeMember is the one member-file encoder. It builds the complete file —
// header, level-interleaved little-endian payload, CRC-64 of the payload in
// the header — as a single image borrowed from the scratch pool, which the
// caller gives back with scratch.Put once the image has been written.
// levels[l] is the row-major field of level l.
func encodeMember(h Header, levels [][]float64) (*[]byte, error) {
	if h.NX <= 0 || h.NY <= 0 {
		return nil, fmt.Errorf("ensio: invalid dimensions %dx%d", h.NX, h.NY)
	}
	if len(levels) == 0 {
		return nil, fmt.Errorf("ensio: no levels")
	}
	points, nl := h.NX*h.NY, len(levels)
	for l, f := range levels {
		if len(f) != points {
			return nil, fmt.Errorf("ensio: level %d has %d points, header says %d", l, len(f), points)
		}
	}
	n := headerSizeV2 + 8*points*nl
	bp := scratch.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	payload := (*bp)[headerSizeV2:]
	for l, f := range levels {
		for i, v := range f {
			binary.LittleEndian.PutUint64(payload[8*(i*nl+l):], math.Float64bits(v))
		}
	}
	putHeader(*bp, h, nl, crc64.Checksum(payload, crcTable))
	return bp, nil
}

// WriteMember writes one background ensemble member to path. The write is
// atomic: readers racing the writer (and crashes mid-write) see either the
// previous complete file or the new one, never a torn member.
func WriteMember(path string, h Header, field []float64) error {
	return WriteMemberLevels(path, h, [][]float64{field})
}

// batchWriters is how many member files WriteBatch keeps in flight. Each
// file is fsynced on its own, and the journal commits concurrent fsyncs
// together: 33 files of 64 KiB took 42 ms one at a time, 30 ms two at a
// time, 23 ms with 4, 6 or 8 in flight and 26 ms with 16 or all 33
// (EXPERIMENTS.md, "Record: PR 17"). The gain comes from the storage stack,
// not from cores, so the count does not follow GOMAXPROCS; it is the
// smallest count on the plateau, because it is also how many pooled images
// are alive at once.
const batchWriters = 4

// WriteBatch writes n member files, a small fixed number at a time, each
// one exactly as WriteMemberLevels writes it (staged, fsynced, renamed).
// file(i) describes file i: its path, header and per-level fields. seen, when
// non-nil, is handed file i's complete image — the bytes that land on disk —
// just before they are written; it runs on the writing goroutine, concurrently
// with the seen of other files, and must not keep the image. On failure the
// error is that of the lowest failing index, naming it; files already
// renamed stay.
func WriteBatch(n int, file func(i int) (path string, h Header, levels [][]float64), seen func(i int, image []byte)) error {
	return par.Do(n, batchWriters, func(_, i int) error {
		path, h, levels := file(i)
		image, err := encodeMember(h, levels)
		if err != nil {
			return fmt.Errorf("ensio: file %d (%s): %w", i, path, err)
		}
		defer scratch.Put(image)
		if seen != nil {
			seen(i, *image)
		}
		if err := atomicCreate(path, *image); err != nil {
			return fmt.Errorf("ensio: file %d (%s): %w", i, path, err)
		}
		return nil
	})
}

// WriteEnsemble writes all members of an ensemble into dir using the
// canonical member file names and returns the paths — or, when any member
// fails, no paths and the error of the lowest failing member.
func WriteEnsemble(dir string, m grid.Mesh, fields [][]float64) ([]string, error) {
	members := make([][][]float64, len(fields))
	for k := range fields {
		members[k] = fields[k : k+1] // member k as a one-level member
	}
	return WriteEnsembleLevels(dir, m, members)
}

// ReadHook intercepts every read attempt: op is "read" or "verify",
// member the file's member index, attempt the 0-based attempt number of
// this operation. A non-nil return aborts the attempt with that error —
// fault plans use this to inject deterministic transient failures.
type ReadHook func(op string, member, attempt int) error

// RetryPolicy bounds retry-with-backoff for transient read errors.
type RetryPolicy struct {
	// Attempts is the total attempt budget per operation (first try
	// included); values below 1 mean a single attempt (no retry).
	Attempts int
	// Backoff is the wait before the first retry; it doubles per retry up
	// to MaxBackoff. Zero disables waiting (useful in tests).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth of the per-retry wait; 0
	// applies the default cap of 8×Backoff (the wait used to double
	// unbounded, which under a large attempt budget turns a transient
	// stall into a multi-minute one).
	MaxBackoff time.Duration
	// JitterSeed, when non-zero, scales every wait by a deterministic
	// pseudo-random factor in [0.5, 1) keyed by (seed, member, retry):
	// concurrent readers retrying the same storage target desynchronize
	// instead of hammering it in lockstep, and a test seed replays the
	// exact wait sequence.
	JitterSeed uint64
}

func (r RetryPolicy) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

// wait returns the backoff before retry number `retry` (1-based) of an
// operation on the given member: Backoff doubled per prior retry, capped,
// then jittered when a seed is set.
func (r RetryPolicy) wait(member, retry int) time.Duration {
	if r.Backoff <= 0 || retry < 1 {
		return 0
	}
	limit := r.MaxBackoff
	if limit <= 0 {
		limit = 8 * r.Backoff
	}
	d := r.Backoff
	for i := 1; i < retry && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	if r.JitterSeed != 0 {
		x := r.JitterSeed ^ uint64(member)<<32 ^ uint64(retry)
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		frac := float64(z>>11) / float64(1<<53) // uniform [0, 1)
		d = time.Duration(float64(d) * (0.5 + 0.5*frac))
	}
	return d
}

// transient is the marker interface of retryable errors.
type transient interface{ Transient() bool }

// IsTransient reports whether err is marked retryable (it or a wrapped
// error implements Transient() bool returning true).
func IsTransient(err error) bool {
	var t transient
	return errors.As(err, &t) && t.Transient()
}

// ErrTruncated is wrapped by the open error of a member file whose size
// does not match the payload its header declares.
var ErrTruncated = errors.New("truncated or padded member file")

// OpenOptions configures integrity and fault-tolerance behaviour of
// OpenMemberOpts. The zero value matches OpenMember exactly.
type OpenOptions struct {
	Retry  RetryPolicy
	Hook   ReadHook
	Verify bool // verify the payload checksum before returning
}

// MemberFile is an open member file with access accounting.
type MemberFile struct {
	Header  Header
	path    string
	f       *os.File
	stats   IOStats
	dataOff int64 // payload start: headerSizeV1 or headerSizeV2
	retry   RetryPolicy
	hook    ReadHook
}

// OpenMember opens and validates a member file (no retry, no checksum
// verification — the fast path of the bit-exact schedules).
func OpenMember(path string) (*MemberFile, error) {
	return OpenMemberOpts(path, OpenOptions{})
}

// OpenMemberOpts opens and validates a member file with the given
// integrity options. Truncation is caught by the size check here; payload
// corruption is caught when o.Verify is set (or later via VerifyChecksum).
func OpenMemberOpts(path string, o OpenOptions) (*MemberFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ensio: open: %w", err)
	}
	hdr := make([]byte, headerSizeV1)
	if _, err := io.ReadFull(f, hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("ensio: read header: %w", err)
	}
	if string(hdr[0:4]) != Magic {
		f.Close()
		return nil, fmt.Errorf("ensio: bad magic %q in %s", hdr[0:4], path)
	}
	v := binary.LittleEndian.Uint32(hdr[4:8])
	if v != 1 && v != Version {
		f.Close()
		return nil, fmt.Errorf("ensio: unsupported version %d in %s", v, path)
	}
	h := Header{
		NX:     int(binary.LittleEndian.Uint32(hdr[8:12])),
		NY:     int(binary.LittleEndian.Uint32(hdr[12:16])),
		Member: int(binary.LittleEndian.Uint32(hdr[16:20])),
		Levels: int(binary.LittleEndian.Uint32(hdr[20:24])),
	}
	dataOff := int64(headerSizeV1)
	if v == Version {
		var sum [8]byte
		if _, err := io.ReadFull(f, sum[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("ensio: read checksum: %w", err)
		}
		h.Checksum = binary.LittleEndian.Uint64(sum[:])
		h.HasChecksum = true
		dataOff = headerSizeV2
	}
	if h.NX <= 0 || h.NY <= 0 {
		f.Close()
		return nil, fmt.Errorf("ensio: invalid dimensions %dx%d in %s", h.NX, h.NY, path)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ensio: stat: %w", err)
	}
	if want, ok := h.payloadBytes(); !ok || fi.Size() != dataOff+want {
		f.Close()
		return nil, fmt.Errorf("ensio: %s has %d bytes, not the %d of its header and the %dx%d points × %d levels it declares: %w",
			path, fi.Size(), dataOff, h.NX, h.NY, h.LevelCount(), ErrTruncated)
	}
	m := &MemberFile{Header: h, path: path, f: f, dataOff: dataOff, retry: o.Retry, hook: o.Hook}
	if o.Verify {
		if err := m.VerifyChecksum(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return m, nil
}

// Close closes the underlying file.
func (m *MemberFile) Close() error { return m.f.Close() }

// Stats returns the accumulated access accounting.
func (m *MemberFile) Stats() IOStats { return m.stats }

// CheckGeometry validates the header against the geometry a reader is
// about to assume — mesh dimensions, vertical level count (0 accepts any)
// and member index (negative accepts any) — returning a descriptive error
// on mismatch instead of letting the read return garbage.
func (m *MemberFile) CheckGeometry(nx, ny, levels, member int) error {
	h := m.Header
	if h.NX != nx || h.NY != ny {
		return fmt.Errorf("ensio: %s holds a %dx%d field, reader expects %dx%d", m.path, h.NX, h.NY, nx, ny)
	}
	if levels > 0 && h.LevelCount() != levels {
		return fmt.Errorf("ensio: %s holds %d vertical levels, reader expects %d", m.path, h.LevelCount(), levels)
	}
	if member >= 0 && h.Member != member {
		return fmt.Errorf("ensio: %s is member %d, reader expects member %d", m.path, h.Member, member)
	}
	return nil
}

// CorruptionError reports a payload checksum mismatch. It is permanent
// (not transient): retrying a corrupted file cannot help.
type CorruptionError struct {
	Path   string
	Member int
	Want   uint64
	Got    uint64
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("ensio: %s (member %d) payload checksum %016x, header says %016x — corrupted member file", e.Path, e.Member, e.Got, e.Want)
}

// withRetry runs op under the file's retry policy: transient errors are
// retried with capped, optionally jittered exponential backoff until the
// attempt budget is exhausted; permanent errors abort immediately.
func (m *MemberFile) withRetry(opName string, op func() error) error {
	attempts := m.retry.attempts()
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			if d := m.retry.wait(m.Header.Member, a); d > 0 {
				time.Sleep(d)
			}
			m.stats.Retries++
		}
		err := m.attempt(opName, a, op)
		if err == nil {
			return nil
		}
		lastErr = err
		if !IsTransient(err) {
			return err
		}
	}
	return fmt.Errorf("ensio: member %d %s failed after %d attempts: %w", m.Header.Member, opName, attempts, lastErr)
}

func (m *MemberFile) attempt(opName string, a int, op func() error) error {
	if m.hook != nil {
		if err := m.hook(opName, m.Header.Member, a); err != nil {
			return err
		}
	}
	return op()
}

// VerifyChecksum re-reads the whole payload and compares its CRC-64
// against the header. Version-1 files carry no checksum and verify as a
// no-op. Corruption yields a *CorruptionError.
func (m *MemberFile) VerifyChecksum() error {
	if !m.Header.HasChecksum {
		return nil
	}
	return m.withRetry("verify", func() error {
		crc := crc64.New(crcTable)
		if _, err := m.f.Seek(m.dataOff, io.SeekStart); err != nil {
			return fmt.Errorf("ensio: seek payload: %w", err)
		}
		n, err := io.Copy(crc, m.f)
		if err != nil {
			return fmt.Errorf("ensio: verify read: %w", err)
		}
		m.stats.Seeks++
		m.stats.Reads++
		m.stats.BytesRead += n
		if got := crc.Sum64(); got != m.Header.Checksum {
			return &CorruptionError{Path: m.path, Member: m.Header.Member, Want: m.Header.Checksum, Got: got}
		}
		return nil
	})
}

// scratch holds the raw-byte buffers reads land in before they are decoded.
// A read borrows one per addressing operation and hands it back once the
// values are decoded, so a run's readers share a handful of buffers instead
// of allocating one per read. Nothing a read returns aliases a buffer.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// fetch reads the count grid points starting at point offset off — every
// level of each — with a single addressing operation, applying the hook and
// retry policy. The bytes land in a scratch buffer, which the caller gives
// back with scratch.Put when it has decoded them.
func (m *MemberFile) fetch(off, count int) (*[]byte, error) {
	pointBytes := 8 * m.Header.LevelCount()
	n := count * pointBytes
	bp := scratch.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	err := m.withRetry("read", func() error {
		if _, err := m.f.ReadAt(*bp, m.dataOff+int64(off*pointBytes)); err != nil {
			return fmt.Errorf("ensio: read at %d: %w", off, err)
		}
		return nil
	})
	if err != nil {
		scratch.Put(bp)
		return nil, err
	}
	m.stats.Seeks++
	m.stats.Reads++
	m.stats.BytesRead += int64(n)
	return bp, nil
}

// decode is the one decoder of the on-disk layout. raw holds whole rows of
// rowWidth grid points, levels values interleaved per point, little-endian;
// columns [x0, x1) of its first rows rows go to dst[l][at:], row-major, one
// slice per level. A pass over a row writes two levels, reading each point's
// 16-byte window of them at constant offsets; an odd last level has a pass
// of its own.
func decode(dst [][]float64, at int, raw []byte, rowWidth, x0, x1, rows int) {
	nl, w := len(dst), x1-x0
	stride := 8 * nl // bytes per point
	for r := 0; r < rows; r++ {
		src := raw[stride*(r*rowWidth+x0):][:stride*w]
		l := 0
		for ; l+1 < nl; l += 2 {
			a := dst[l][at+r*w:][:w]
			b := dst[l+1][at+r*w:][:w]
			for x, off := 0, 8*l; x < len(a); x, off = x+1, off+stride {
				p := src[off:][:16]
				a[x] = math.Float64frombits(binary.LittleEndian.Uint64(p[:8]))
				b[x] = math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
			}
		}
		if l < nl {
			d := dst[l][at+r*w:][:w]
			for x, off := 0, 8*l; x < len(d); x, off = x+1, off+stride {
				d[x] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:][:8]))
			}
		}
	}
}

// payloads holds the payload bundles handed to Recycle, whole or what a read
// left of one.
var payloads sync.Pool // of *[][]float64

// Recycle gives back payloads returned by ReadBarBoxes or ReadBlockLevels, by
// the bundle, once the caller holds no other reference to them. Later reads
// hand them out again as they are: a read overwrites every element it returns.
func Recycle(bundle [][]float64) {
	if len(bundle) > 0 {
		payloads.Put(&bundle)
	}
}

// borrow returns count payloads, the i-th of points(i) values, each a recycled
// one where the pool has one that large and new otherwise. The caller
// overwrites them all.
func borrow(count int, points func(i int) int) [][]float64 {
	out := make([][]float64, count)
	var bundle *[][]float64
	for i := range out {
		if bundle == nil || len(*bundle) == 0 {
			bundle, _ = payloads.Get().(*[][]float64)
		}
		if bundle != nil {
			last := len(*bundle) - 1
			out[i], (*bundle)[last] = (*bundle)[last], nil
			*bundle = (*bundle)[:last]
		}
		if n := points(i); cap(out[i]) < n {
			out[i] = make([]float64, n)
		} else {
			out[i] = out[i][:n]
		}
	}
	if bundle != nil && len(*bundle) > 0 {
		payloads.Put(bundle)
	}
	return out
}

// ReadBarBoxes reads the contiguous latitude rows [y0, y1) of every level
// with a single addressing operation — the bar reading approach: one seek
// regardless of the bar height or of how many boxes are cut from it — and
// decodes the bar straight into one payload per box and level: out[i][l] is
// level l over boxes[i], row-major. Every box must be non-empty and lie
// inside the bar. The payloads are the caller's, to keep or to Recycle.
func (m *MemberFile) ReadBarBoxes(y0, y1 int, boxes []grid.Box) ([][][]float64, error) {
	nx, nl := m.Header.NX, m.Header.LevelCount()
	if y0 < 0 || y1 > m.Header.NY || y0 >= y1 {
		return nil, fmt.Errorf("ensio: bar rows [%d,%d) out of range [0,%d)", y0, y1, m.Header.NY)
	}
	bar := grid.Box{X0: 0, X1: nx, Y0: y0, Y1: y1}
	for _, b := range boxes {
		if b.Empty() || b.Intersect(bar) != b {
			return nil, fmt.Errorf("ensio: box %v empty or outside bar rows [%d,%d) of a %d-wide mesh", b, y0, y1, nx)
		}
	}
	bp, err := m.fetch(y0*nx, bar.Points())
	if err != nil {
		return nil, err
	}
	defer scratch.Put(bp)
	all := borrow(len(boxes)*nl, func(i int) int { return boxes[i/nl].Points() })
	out := make([][][]float64, len(boxes))
	for i, b := range boxes {
		out[i] = all[i*nl : (i+1)*nl : (i+1)*nl]
		decode(out[i], 0, (*bp)[8*nl*nx*(b.Y0-y0):], nx, b.X0, b.X1, b.Height())
	}
	return out, nil
}

// ReadBarLevels reads the contiguous latitude rows [y0, y1) of every level
// with a single addressing operation, returning one row-major slice per
// level.
func (m *MemberFile) ReadBarLevels(y0, y1 int) ([][]float64, error) {
	out, err := m.ReadBarBoxes(y0, y1, []grid.Box{{X0: 0, X1: m.Header.NX, Y0: y0, Y1: y1}})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadBar is ReadBarLevels on a single-level file.
func (m *MemberFile) ReadBar(y0, y1 int) ([]float64, error) {
	if m.Header.LevelCount() != 1 {
		return nil, fmt.Errorf("ensio: %d-level file needs ReadBarLevels", m.Header.LevelCount())
	}
	out, err := m.ReadBarLevels(y0, y1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadBlockLevels reads the rectangle b of every level — the block reading
// approach: one addressing operation per latitude row of the block, because
// the rows of a rectangle that is narrower than the mesh are not adjacent on
// disk (and each row is levels times heavier on a multi-level file).
func (m *MemberFile) ReadBlockLevels(b grid.Box) ([][]float64, error) {
	mesh := grid.Mesh{NX: m.Header.NX, NY: m.Header.NY}
	if b.Clamp(mesh) != b || b.Empty() {
		return nil, fmt.Errorf("ensio: block %v out of range for %dx%d", b, mesh.NX, mesh.NY)
	}
	if b.Width() == mesh.NX {
		// Full-width blocks are bars: contiguous, single seek.
		return m.ReadBarLevels(b.Y0, b.Y1)
	}
	nl, w := m.Header.LevelCount(), b.Width()
	out := borrow(nl, func(int) int { return b.Points() })
	for y := b.Y0; y < b.Y1; y++ {
		bp, err := m.fetch(y*mesh.NX+b.X0, w)
		if err != nil {
			return nil, err
		}
		decode(out, (y-b.Y0)*w, *bp, w, 0, w, 1)
		scratch.Put(bp)
	}
	return out, nil
}

// ReadBlock is ReadBlockLevels on a single-level file.
func (m *MemberFile) ReadBlock(b grid.Box) ([]float64, error) {
	if m.Header.LevelCount() != 1 {
		return nil, fmt.Errorf("ensio: %d-level file needs ReadBlockLevels", m.Header.LevelCount())
	}
	out, err := m.ReadBlockLevels(b)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ReadAll reads the entire field with one addressing operation.
func (m *MemberFile) ReadAll() ([]float64, error) {
	return m.ReadBar(0, m.Header.NY)
}

// DirInfo summarizes an on-disk ensemble directory.
type DirInfo struct {
	N      int // member files found (members 0..N-1, contiguous)
	NX, NY int
	Levels int
}

// InspectDir validates an ensemble directory before a run: members
// 0..n-1 must exist, open cleanly and agree on geometry. With n <= 0 the
// directory is scanned until the first missing member. The returned
// DirInfo carries the common geometry; errors name the offending member
// and what is wrong with it, so callers can print one actionable line.
func InspectDir(dir string, n int) (DirInfo, error) {
	var info DirInfo
	if n <= 0 {
		for {
			if _, err := os.Stat(MemberPath(dir, n)); err != nil {
				break
			}
			n++
		}
		if n == 0 {
			return info, fmt.Errorf("ensio: no member files in %s (expected member_0000.senk, ... — generate them with senkf-gen)", dir)
		}
	}
	for k := 0; k < n; k++ {
		path := MemberPath(dir, k)
		mf, err := OpenMember(path)
		if err != nil {
			if os.IsNotExist(errors.Unwrap(err)) || errors.Is(err, os.ErrNotExist) {
				return info, fmt.Errorf("ensio: member %d of %d missing from %s (%s)", k, n, dir, err)
			}
			return info, fmt.Errorf("ensio: member %d unreadable: %w", k, err)
		}
		h := mf.Header
		mf.Close()
		if k == 0 {
			info = DirInfo{N: n, NX: h.NX, NY: h.NY, Levels: h.LevelCount()}
			continue
		}
		if h.NX != info.NX || h.NY != info.NY || h.LevelCount() != info.Levels {
			return info, fmt.Errorf("ensio: member %d is %dx%d with %d levels, member 0 is %dx%d with %d levels — mixed ensembles in %s",
				k, h.NX, h.NY, h.LevelCount(), info.NX, info.NY, info.Levels, dir)
		}
		if h.Member != k {
			return info, fmt.Errorf("ensio: file %s declares member %d, expected %d", path, h.Member, k)
		}
	}
	return info, nil
}
