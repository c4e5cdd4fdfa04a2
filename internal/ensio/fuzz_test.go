package ensio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"testing"

	"senkf/internal/grid"
)

// fuzzImage encodes a small member file whose values depend on (nx, ny, nl).
func fuzzImage(tb testing.TB, nx, ny, nl, member int) []byte {
	tb.Helper()
	levels := make([][]float64, nl)
	for l := range levels {
		levels[l] = make([]float64, nx*ny)
		for i := range levels[l] {
			levels[l][i] = float64(l*1000+i) + 0.25
		}
	}
	bp, err := encodeMember(Header{NX: nx, NY: ny, Member: member}, levels)
	if err != nil {
		tb.Fatal(err)
	}
	defer scratch.Put(bp)
	return bytes.Clone(*bp)
}

// asV1 rewrites a version-2 image as the version-1 file of the same payload.
func asV1(image []byte) []byte {
	out := append(bytes.Clone(image[:headerSizeV1]), image[headerSizeV2:]...)
	binary.LittleEndian.PutUint32(out[4:8], 1)
	return out
}

// FuzzOpenMember feeds arbitrary bytes to the member-file reader as a file.
// Whatever they are, nothing may panic, and a file that opens must be read
// back as exactly the bytes it holds — through the bar and the block path —
// or be refused: a version-2 file whose payload does not match its CRC-64
// never verifies, a file whose size does not match its header never opens,
// and neither does any damaged copy of a file that did.
func FuzzOpenMember(f *testing.F) {
	v2 := fuzzImage(f, 5, 3, 1, 2)
	f.Add(v2)
	f.Add(fuzzImage(f, 4, 4, 3, 0))
	f.Add(asV1(v2))
	f.Add(v2[:len(v2)-8])                      // truncated
	f.Add(append(bytes.Clone(v2), 0, 0, 0, 0)) // padded
	flipped := bytes.Clone(v2)
	flipped[headerSizeV2+9] ^= 0x10
	f.Add(flipped)
	f.Add(v2[:headerSizeV1]) // a version-2 header without its checksum
	f.Add([]byte(Magic))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "member.senk")
		open := func(image []byte, o OpenOptions) (*MemberFile, error) {
			if err := os.WriteFile(path, image, 0o600); err != nil {
				t.Fatal(err)
			}
			return OpenMemberOpts(path, o)
		}
		m, err := open(data, OpenOptions{})
		if err != nil {
			return
		}
		h, nl := m.Header, m.Header.LevelCount()
		payload := data[m.dataOff:]
		if h.NX <= 0 || h.NY <= 0 || len(payload)/8/nl/h.NX != h.NY || len(payload)%(8*nl*h.NX) != 0 {
			t.Fatalf("opened a %d-byte payload as %dx%d points of %d levels", len(payload), h.NX, h.NY, nl)
		}
		at := func(l, x, y int) uint64 { return binary.LittleEndian.Uint64(payload[8*((y*h.NX+x)*nl+l):]) }

		bar, err := m.ReadBarLevels(0, h.NY)
		if err != nil {
			t.Fatalf("bar read of an opened file: %v", err)
		}
		// A block narrower than the mesh takes the row-by-row path.
		b := grid.Box{X0: h.NX / 2, X1: h.NX, Y0: h.NY / 3, Y1: h.NY}
		blk, err := m.ReadBlockLevels(b)
		if err != nil {
			t.Fatalf("block read %v of an opened file: %v", b, err)
		}
		for l := 0; l < nl; l++ {
			for y := 0; y < h.NY; y++ {
				for x := 0; x < h.NX; x++ {
					if got := math.Float64bits(bar[l][y*h.NX+x]); got != at(l, x, y) {
						t.Fatalf("bar read level %d (%d,%d) = %016x, file holds %016x", l, x, y, got, at(l, x, y))
					}
					if b.Contains(x, y) {
						if got := math.Float64bits(blk[l][(y-b.Y0)*b.Width()+x-b.X0]); got != at(l, x, y) {
							t.Fatalf("block read level %d (%d,%d) = %016x, file holds %016x", l, x, y, got, at(l, x, y))
						}
					}
				}
			}
		}
		verifyErr := m.VerifyChecksum()
		m.Close()

		intact := !h.HasChecksum || crc64.Checksum(payload, crcTable) == h.Checksum
		var ce *CorruptionError
		if intact && verifyErr != nil {
			t.Fatalf("an intact file does not verify: %v", verifyErr)
		}
		if !intact && !errors.As(verifyErr, &ce) {
			t.Fatalf("a payload that does not match its checksum verified: %v", verifyErr)
		}
		if v, err := open(data, OpenOptions{Verify: true}); (err == nil) != intact {
			t.Fatalf("verify-on-open of a file with intact=%v: %v", intact, err)
		} else if err == nil {
			v.Close()
		}

		// Damage the file the way storage does, where the input says.
		where := int(crc64.Checksum(data, crcTable) % uint64(len(payload)))
		short := data[:len(data)-1-where]
		if m, err := open(short, OpenOptions{}); !errors.Is(err, ErrTruncated) {
			if err == nil {
				m.Close()
			}
			t.Fatalf("a copy %d bytes short opened: %v", len(data)-len(short), err)
		}
		if h.HasChecksum && intact {
			bad := bytes.Clone(data)
			bad[int(m.dataOff)+where] ^= 1 << (where % 8)
			if m, err := open(bad, OpenOptions{Verify: true}); !errors.As(err, &ce) {
				if err == nil {
					m.Close()
				}
				t.Fatalf("a copy with one payload bit flipped verified on open: %v", err)
			}
		}
	})
}
