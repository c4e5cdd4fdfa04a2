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
// retried under a bounded attempt budget and pass a fault-injection
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

	"senkf/internal/grid"
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

// EncodeImage is the one member-file encoder. It builds the complete file —
// header, level-interleaved little-endian payload, CRC-64 of the payload in
// the header — in buf's storage when that is large enough, and returns it.
// levels[l] is the row-major field of level l; the header's level count is
// len(levels).
func EncodeImage(buf []byte, h Header, levels [][]float64) ([]byte, error) {
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
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	payload := buf[headerSizeV2:]
	for l, f := range levels {
		for i, v := range f {
			binary.LittleEndian.PutUint64(payload[8*(i*nl+l):], math.Float64bits(v))
		}
	}
	putHeader(buf, h, nl, crc64.Checksum(payload, crcTable))
	return buf, nil
}

// encodeMember is EncodeImage into an image borrowed from the scratch pool,
// which the caller gives back with scratch.Put once the image is written.
func encodeMember(h Header, levels [][]float64) (*[]byte, error) {
	bp := scratch.Get().(*[]byte)
	image, err := EncodeImage(*bp, h, levels)
	if err != nil {
		scratch.Put(bp)
		return nil, err
	}
	*bp = image
	return bp, nil
}

// WriteMember writes one background ensemble member to path. The write is
// atomic: readers racing the writer (and crashes mid-write) see either the
// previous complete file or the new one, never a torn member.
func WriteMember(path string, h Header, field []float64) error {
	return WriteMemberLevels(path, h, [][]float64{field})
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
	// Attempts is the attempt budget of each read operation, the first
	// included: a transient error is retried at once until it is spent.
	// Values below 1 mean a single attempt.
	Attempts int
	Hook     ReadHook
	Verify   bool // verify the payload checksum before returning
}

// MemberFile is an open member file with access accounting.
type MemberFile struct {
	Header   Header
	path     string
	f        *os.File
	stats    IOStats
	dataOff  int64 // payload start: headerSizeV1 or headerSizeV2
	attempts int   // per read operation (OpenOptions.Attempts)
	hook     ReadHook
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
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ensio: stat: %w", err)
	}
	hdr := make([]byte, headerSizeV2)
	n, err := io.ReadFull(f, hdr)
	if err != nil && err != io.ErrUnexpectedEOF {
		f.Close()
		return nil, fmt.Errorf("ensio: read header: %w", err)
	}
	h, dataOff, err := parseHeader(path, hdr[:n], fi.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &MemberFile{Header: h, path: path, f: f, dataOff: dataOff, attempts: o.Attempts, hook: o.Hook}
	if o.Verify {
		if err := m.VerifyChecksum(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return m, nil
}

// parseHeader is the one header parser. b is the start of the file path of
// size bytes — the whole file if it is shorter than a version-2 header —
// and the header must be well formed and declare exactly the payload the
// size leaves after it. It returns the header and the payload's offset.
func parseHeader(path string, b []byte, size int64) (Header, int64, error) {
	if len(b) < headerSizeV1 {
		return Header{}, 0, fmt.Errorf("ensio: %s has %d bytes, less than a header: %w", path, size, ErrTruncated)
	}
	if string(b[0:4]) != Magic {
		return Header{}, 0, fmt.Errorf("ensio: bad magic %q in %s", b[0:4], path)
	}
	v := binary.LittleEndian.Uint32(b[4:8])
	if v != 1 && v != Version {
		return Header{}, 0, fmt.Errorf("ensio: unsupported version %d in %s", v, path)
	}
	h := Header{
		NX:     int(binary.LittleEndian.Uint32(b[8:12])),
		NY:     int(binary.LittleEndian.Uint32(b[12:16])),
		Member: int(binary.LittleEndian.Uint32(b[16:20])),
		Levels: int(binary.LittleEndian.Uint32(b[20:24])),
	}
	dataOff := int64(headerSizeV1)
	if v == Version {
		if len(b) < headerSizeV2 {
			return Header{}, 0, fmt.Errorf("ensio: %s has %d bytes, less than a version-2 header: %w", path, size, ErrTruncated)
		}
		h.Checksum = binary.LittleEndian.Uint64(b[checksumOffset:headerSizeV2])
		h.HasChecksum = true
		dataOff = headerSizeV2
	}
	if h.NX <= 0 || h.NY <= 0 {
		return Header{}, 0, fmt.Errorf("ensio: invalid dimensions %dx%d in %s", h.NX, h.NY, path)
	}
	if want, ok := h.payloadBytes(); !ok || size != dataOff+want {
		return Header{}, 0, fmt.Errorf("ensio: %s has %d bytes, not the %d of its header and the %dx%d points × %d levels it declares: %w",
			path, size, dataOff, h.NX, h.NY, h.LevelCount(), ErrTruncated)
	}
	return h, dataOff, nil
}

// DecodeImage reads a member file held in memory as name: the header, the
// size and the payload checksum are checked as OpenMemberOpts with Verify
// checks a file, and the payload is decoded into the fields dst returns for
// the header, one row-major field per level. dst may refuse the header by
// returning an error, which DecodeImage returns.
func DecodeImage(name string, image []byte, dst func(Header) ([][]float64, error)) error {
	h, dataOff, err := parseHeader(name, image, int64(len(image)))
	if err != nil {
		return err
	}
	payload := image[dataOff:]
	if h.HasChecksum {
		if got := crc64.Checksum(payload, crcTable); got != h.Checksum {
			return &CorruptionError{Path: name, Member: h.Member, Want: h.Checksum, Got: got}
		}
	}
	levels, err := dst(h)
	if err != nil {
		return err
	}
	if len(levels) != h.LevelCount() {
		return fmt.Errorf("ensio: %s holds %d levels, %d fields given", name, h.LevelCount(), len(levels))
	}
	for l, f := range levels {
		if len(f) != h.NX*h.NY {
			return fmt.Errorf("ensio: %s: field %d has %d points, the header says %d", name, l, len(f), h.NX*h.NY)
		}
	}
	decode(levels, 0, payload, h.NX, 0, h.NX, h.NY)
	return nil
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

// withRetry runs op under the file's attempt budget: transient errors are
// retried until it is spent; permanent errors abort immediately.
func (m *MemberFile) withRetry(opName string, op func() error) error {
	attempts := max(1, m.attempts)
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
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
// attempt budget. The bytes land in a scratch buffer, which the caller gives
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

// borrow fills out with payloads, the i-th of points(i) values, each a
// recycled one where the pool has one that large and new otherwise. The caller
// overwrites them all.
func borrow(out [][]float64, points func(i int) int) {
	var bundle *[][]float64
	for i := range out {
		out[i] = nil
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
}

// ReadBarBoxes reads the contiguous latitude rows [y0, y1) of every level
// with a single addressing operation — the bar reading approach: one seek
// regardless of the bar height or of how many boxes are cut from it — and
// decodes the bar straight into one payload per box and level, which it
// stores in the caller's slots: dst[i·levels+l] is level l over boxes[i],
// row-major, and dst holds exactly len(boxes)·levels slots. Every box must be
// non-empty and lie inside the bar. The payloads are the caller's, to keep or
// to Recycle; what the slots held before is overwritten, not given back.
func (m *MemberFile) ReadBarBoxes(y0, y1 int, boxes []grid.Box, dst [][]float64) error {
	nx, nl := m.Header.NX, m.Header.LevelCount()
	if y0 < 0 || y1 > m.Header.NY || y0 >= y1 {
		return fmt.Errorf("ensio: bar rows [%d,%d) out of range [0,%d)", y0, y1, m.Header.NY)
	}
	if len(dst) != len(boxes)*nl {
		return fmt.Errorf("ensio: %d payload slots for %d boxes of %d levels", len(dst), len(boxes), nl)
	}
	bar := grid.Box{X0: 0, X1: nx, Y0: y0, Y1: y1}
	for _, b := range boxes {
		if b.Empty() || b.Intersect(bar) != b {
			return fmt.Errorf("ensio: box %v empty or outside bar rows [%d,%d) of a %d-wide mesh", b, y0, y1, nx)
		}
	}
	bp, err := m.fetch(y0*nx, bar.Points())
	if err != nil {
		return err
	}
	defer scratch.Put(bp)
	borrow(dst, func(i int) int { return boxes[i/nl].Points() })
	for i, b := range boxes {
		decode(dst[i*nl:(i+1)*nl], 0, (*bp)[8*nl*nx*(b.Y0-y0):], nx, b.X0, b.X1, b.Height())
	}
	return nil
}

// ReadBarLevels reads the contiguous latitude rows [y0, y1) of every level
// with a single addressing operation, returning one row-major slice per
// level.
func (m *MemberFile) ReadBarLevels(y0, y1 int) ([][]float64, error) {
	out := make([][]float64, m.Header.LevelCount())
	if err := m.ReadBarBoxes(y0, y1, []grid.Box{{X0: 0, X1: m.Header.NX, Y0: y0, Y1: y1}}, out); err != nil {
		return nil, err
	}
	return out, nil
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
	out := make([][]float64, nl)
	borrow(out, func(int) int { return b.Points() })
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
