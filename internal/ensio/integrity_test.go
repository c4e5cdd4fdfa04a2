package ensio

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"senkf/internal/grid"
)

func writeIntegrityMember(t *testing.T, dir string, k, nx, ny int) (string, []float64) {
	t.Helper()
	field := make([]float64, nx*ny)
	for i := range field {
		field[i] = float64(k*1000 + i)
	}
	path := MemberPath(dir, k)
	if err := WriteMember(path, Header{NX: nx, NY: ny, Member: k}, field); err != nil {
		t.Fatal(err)
	}
	return path, field
}

func TestChecksumRoundTrip(t *testing.T) {
	path, field := writeIntegrityMember(t, t.TempDir(), 0, 6, 4)
	m, err := OpenMemberOpts(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatalf("verify-on-open of a fresh file failed: %v", err)
	}
	defer m.Close()
	if !m.Header.HasChecksum {
		t.Error("v2 file has no checksum")
	}
	if err := m.VerifyChecksum(); err != nil {
		t.Errorf("verify of a fresh file failed: %v", err)
	}
	got, err := m.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != field[i] {
			t.Fatalf("payload[%d] = %g, want %g", i, v, field[i])
		}
	}
}

func TestSingleBitCorruptionDetected(t *testing.T) {
	path, _ := writeIntegrityMember(t, t.TempDir(), 0, 6, 4)
	// Flip one payload bit behind the 32-byte header.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 40); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], 40); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.VerifyChecksum()
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("VerifyChecksum = %v, want *CorruptionError", err)
	}
	if IsTransient(err) {
		t.Error("corruption classified as transient")
	}
	if _, err := OpenMemberOpts(path, OpenOptions{Verify: true}); !errors.As(err, &ce) {
		t.Errorf("verify-on-open = %v, want *CorruptionError", err)
	}
}

func TestTruncationDetectedAtOpen(t *testing.T) {
	path, _ := writeIntegrityMember(t, t.TempDir(), 0, 6, 4)
	if err := os.Truncate(path, 40); err != nil {
		t.Fatal(err)
	}
	_, err := OpenMember(path)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("open of a truncated file = %v, want truncation error", err)
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("open of a truncated file = %v, want it to wrap ErrTruncated", err)
	}
}

func TestRetryRecoversFromTransient(t *testing.T) {
	path, field := writeIntegrityMember(t, t.TempDir(), 3, 6, 4)
	fails := 2
	hook := func(op string, member, attempt int) error {
		if op == "read" && attempt < fails {
			return testTransient{}
		}
		return nil
	}
	m, err := OpenMemberOpts(path, OpenOptions{
		Retry: RetryPolicy{Attempts: 3},
		Hook:  hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	got, err := m.ReadBar(0, 4)
	if err != nil {
		t.Fatalf("read with 2 transient failures under a 3-attempt budget failed: %v", err)
	}
	if got[0] != field[0] {
		t.Errorf("payload[0] = %g, want %g", got[0], field[0])
	}
	if r := m.Stats().Retries; r != 2 {
		t.Errorf("Retries = %d, want 2", r)
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	path, _ := writeIntegrityMember(t, t.TempDir(), 3, 6, 4)
	hook := func(op string, member, attempt int) error {
		if op == "read" {
			return testTransient{}
		}
		return nil
	}
	m, err := OpenMemberOpts(path, OpenOptions{
		Retry: RetryPolicy{Attempts: 3},
		Hook:  hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.ReadBar(0, 4)
	if err == nil || !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Fatalf("exhausted read = %v, want attempt-budget error", err)
	}
	if !IsTransient(err) {
		t.Error("exhaustion error lost the transient marker")
	}
	if r := m.Stats().Retries; r != 2 {
		t.Errorf("Retries = %d, want 2", r)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	path, _ := writeIntegrityMember(t, t.TempDir(), 0, 6, 4)
	calls := 0
	hook := func(op string, member, attempt int) error {
		if op != "read" {
			return nil
		}
		calls++
		return errors.New("permanent storage error")
	}
	m, err := OpenMemberOpts(path, OpenOptions{
		Retry: RetryPolicy{Attempts: 5},
		Hook:  hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.ReadBar(0, 4); err == nil {
		t.Fatal("permanent error swallowed")
	}
	if calls != 1 {
		t.Errorf("permanent error attempted %d times, want 1", calls)
	}
	if r := m.Stats().Retries; r != 0 {
		t.Errorf("Retries = %d, want 0", r)
	}
}

// testTransient is a minimal retryable error.
type testTransient struct{}

func (testTransient) Error() string   { return "test transient" }
func (testTransient) Transient() bool { return true }

func TestV1BackCompat(t *testing.T) {
	dir := t.TempDir()
	nx, ny := 4, 3
	field := make([]float64, nx*ny)
	for i := range field {
		field[i] = float64(i) * 1.5
	}
	// Hand-write a version-1 file: 24-byte header, no checksum.
	hdr := make([]byte, 24)
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], 1)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(nx))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(ny))
	binary.LittleEndian.PutUint32(hdr[16:20], 7)
	binary.LittleEndian.PutUint32(hdr[20:24], 0)
	payload := make([]byte, 8*len(field))
	for i, v := range field {
		binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
	}
	path := MemberPath(dir, 7)
	if err := os.WriteFile(path, append(hdr, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMemberOpts(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatalf("open v1 file: %v", err)
	}
	defer m.Close()
	if m.Header.HasChecksum {
		t.Error("v1 file claims a checksum")
	}
	if err := m.VerifyChecksum(); err != nil {
		t.Errorf("v1 verify (should be a no-op) = %v", err)
	}
	got, err := m.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != field[i] {
			t.Fatalf("v1 payload[%d] = %g, want %g", i, v, field[i])
		}
	}
}

func TestCheckGeometry(t *testing.T) {
	path, _ := writeIntegrityMember(t, t.TempDir(), 2, 6, 4)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CheckGeometry(6, 4, 1, 2); err != nil {
		t.Errorf("matching geometry rejected: %v", err)
	}
	if err := m.CheckGeometry(6, 4, 0, -1); err != nil {
		t.Errorf("wildcard levels/member rejected: %v", err)
	}
	if err := m.CheckGeometry(8, 4, 1, 2); err == nil {
		t.Error("wrong mesh accepted")
	}
	if err := m.CheckGeometry(6, 4, 30, 2); err == nil {
		t.Error("wrong level count accepted")
	}
	if err := m.CheckGeometry(6, 4, 1, 5); err == nil {
		t.Error("wrong member index accepted")
	}
}

func TestInspectDir(t *testing.T) {
	dir := t.TempDir()
	mesh := grid.Mesh{NX: 6, NY: 4}
	fields := make([][]float64, 3)
	for k := range fields {
		fields[k] = make([]float64, mesh.NX*mesh.NY)
	}
	if _, err := WriteEnsemble(dir, mesh, fields); err != nil {
		t.Fatal(err)
	}
	info, err := InspectDir(dir, 3)
	if err != nil {
		t.Fatalf("inspect of a valid dir: %v", err)
	}
	if info.N != 3 || info.NX != 6 || info.NY != 4 || info.Levels != 1 {
		t.Errorf("info = %+v", info)
	}
	// n <= 0 scans until the first missing member.
	scanned, err := InspectDir(dir, 0)
	if err != nil || scanned.N != 3 {
		t.Errorf("scan = %+v, %v", scanned, err)
	}
	// Missing member named in the error.
	if _, err := InspectDir(dir, 5); err == nil || !strings.Contains(err.Error(), "member 3") {
		t.Errorf("missing-member error = %v", err)
	}
	// Mixed geometry is caught.
	other := make([]float64, 8*2)
	if err := WriteMember(MemberPath(dir, 3), Header{NX: 8, NY: 2, Member: 3}, other); err != nil {
		t.Fatal(err)
	}
	if _, err := InspectDir(dir, 4); err == nil || !strings.Contains(err.Error(), "mixed") {
		t.Errorf("mixed-geometry error = %v", err)
	}
	// Empty directory is actionable.
	if _, err := InspectDir(t.TempDir(), 0); err == nil || !strings.Contains(err.Error(), "senkf-gen") {
		t.Errorf("empty-dir error = %v", err)
	}
}
