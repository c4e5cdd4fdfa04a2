package ensio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"senkf/internal/grid"
)

// writeStreaming is the member-file writer as it was before the single-image
// one: header with a zero checksum, the payload streamed a row at a time
// through the CRC, the checksum patched in afterwards. Kept as the oracle
// the new writer's files must equal byte for byte (no staging: the test only
// reads the bytes back).
func writeStreaming(path string, h Header, levels [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	nl := len(levels)
	hdr := make([]byte, headerSizeV2)
	copy(hdr[0:4], Magic)
	binary.LittleEndian.PutUint32(hdr[4:8], Version)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(h.NX))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(h.NY))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(h.Member))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(nl))
	if _, err := f.Write(hdr); err != nil {
		return err
	}
	crc := crc64.New(crcTable)
	buf := make([]byte, 8*h.NX*nl)
	for y := 0; y < h.NY; y++ {
		for x := 0; x < h.NX; x++ {
			for l := 0; l < nl; l++ {
				binary.LittleEndian.PutUint64(buf[8*(x*nl+l):], math.Float64bits(levels[l][y*h.NX+x]))
			}
		}
		crc.Write(buf)
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], crc.Sum64())
	if _, err := f.WriteAt(sum[:], checksumOffset); err != nil {
		return err
	}
	return f.Close()
}

// oddField holds values whose bit patterns exercise every byte of the
// encoding: signs, subnormals, infinities, a NaN payload.
func oddField(nx, ny, k int) []float64 {
	f := testField(nx, ny, k)
	special := []float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.MaxFloat64,
		math.Inf(1), math.Float64frombits(0x7ff8dead0000beef), math.Pi}
	for i := range f {
		if i%3 == 0 {
			f[i] = special[(i/3+k)%len(special)]
		} else {
			f[i] = -f[i] / 7
		}
	}
	return f
}

func TestWriterByteIdenticalToStreamingWriter(t *testing.T) {
	dir := t.TempDir()
	for _, shape := range [][2]int{{1, 1}, {1, 7}, {7, 1}, {5, 3}, {13, 9}, {64, 33}} {
		for nl := 1; nl <= 3; nl++ {
			nx, ny := shape[0], shape[1]
			levels := make([][]float64, nl)
			for l := range levels {
				levels[l] = oddField(nx, ny, 10*nl+l)
			}
			h := Header{NX: nx, NY: ny, Member: 3*nl + nx}
			name := fmt.Sprintf("%dx%dx%d", nx, ny, nl)
			oldPath, newPath := filepath.Join(dir, name+".old"), filepath.Join(dir, name+".new")
			if err := writeStreaming(oldPath, h, levels); err != nil {
				t.Fatal(err)
			}
			if err := WriteMemberLevels(newPath, h, levels); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(oldPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(newPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: WriteMemberLevels wrote %d bytes that differ from the streaming writer's %d", name, len(got), len(want))
			}
			if nl == 1 {
				if err := WriteMember(newPath, h, levels[0]); err != nil {
					t.Fatal(err)
				}
				if got, err = os.ReadFile(newPath); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: WriteMember differs from the streaming writer", name)
				}
			}
			// The checksum in the image is the payload's: the file verifies.
			mf, err := OpenMemberOpts(newPath, OpenOptions{Verify: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mf.Close()
		}
	}
	assertNoTempFiles(t, dir)
}

// WriteEnsembleLevels lands each member file exactly as WriteMemberLevels
// writes it.
func TestWriteEnsembleLevelsFilesAreWriteMemberLevels(t *testing.T) {
	dir := t.TempDir()
	const n = 11
	m := grid.Mesh{NX: 9, NY: 5}
	levels := func(k int) [][]float64 {
		return [][]float64{oddField(m.NX, m.NY, k), oddField(m.NX, m.NY, k+50)}
	}
	members := make([][][]float64, n)
	for k := range members {
		members[k] = levels(k)
	}
	paths, err := WriteEnsembleLevels(dir, m, members)
	if err != nil {
		t.Fatal(err)
	}
	single := filepath.Join(t.TempDir(), "single.senk")
	for k, path := range paths {
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMemberLevels(single, Header{NX: m.NX, NY: m.NY, Member: k}, levels(k)); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(single)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("member %d differs from WriteMemberLevels' file", k)
		}
	}
	assertNoTempFiles(t, dir)
}

// DecodeImage reads back what EncodeImage built, through the header parser
// files are opened with, and refuses the damage a file open refuses.
func TestDecodeImageRoundTrip(t *testing.T) {
	m := grid.Mesh{NX: 7, NY: 3}
	levels := [][]float64{oddField(m.NX, m.NY, 1), oddField(m.NX, m.NY, 2), oddField(m.NX, m.NY, 3)}
	image, err := EncodeImage(nil, Header{NX: m.NX, NY: m.NY, Member: 4}, levels)
	if err != nil {
		t.Fatal(err)
	}
	// The image is the file WriteMemberLevels lands.
	path := filepath.Join(t.TempDir(), "m.senk")
	if err := WriteMemberLevels(path, Header{NX: m.NX, NY: m.NY, Member: 4}, levels); err != nil {
		t.Fatal(err)
	}
	if file, err := os.ReadFile(path); err != nil || !bytes.Equal(file, image) {
		t.Fatalf("the image is not the file (%v)", err)
	}
	decodeAll := func(image []byte) ([][]float64, error) {
		var out [][]float64
		err := DecodeImage("m.senk", image, func(h Header) ([][]float64, error) {
			if h.Member != 4 || h.LevelCount() != 3 {
				return nil, fmt.Errorf("header %+v", h)
			}
			out = [][]float64{make([]float64, 21), make([]float64, 21), make([]float64, 21)}
			return out, nil
		})
		return out, err
	}
	got, err := decodeAll(image)
	if err != nil {
		t.Fatal(err)
	}
	for l := range levels {
		for i := range levels[l] {
			if math.Float64bits(got[l][i]) != math.Float64bits(levels[l][i]) {
				t.Fatalf("level %d point %d: %v, want %v", l, i, got[l][i], levels[l][i])
			}
		}
	}
	flipped := bytes.Clone(image)
	flipped[len(flipped)-3] ^= 0x08
	var ce *CorruptionError
	if _, err := decodeAll(flipped); !errors.As(err, &ce) {
		t.Fatalf("a flipped payload bit decoded: %v", err)
	}
	for _, cut := range []int{1, 8, len(image) - headerSizeV2, len(image) - 5} {
		if _, err := decodeAll(image[:len(image)-cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("an image %d bytes short decoded: %v", cut, err)
		}
	}
	refused := errors.New("refused")
	if err := DecodeImage("m.senk", image, func(Header) ([][]float64, error) { return nil, refused }); err != refused {
		t.Fatalf("dst's refusal came back as %v", err)
	}
	if err := DecodeImage("m.senk", image, func(Header) ([][]float64, error) { return got[:2], nil }); err == nil {
		t.Fatal("two fields accepted for three levels")
	}
}

// One malformed member fails the whole ensemble write with that member's
// error — the lowest malformed index, on every run — and no paths.
func TestWriteEnsembleLowestIndexErrorAndNoPaths(t *testing.T) {
	m := grid.Mesh{NX: 6, NY: 4}
	fields := make([][]float64, 12)
	for k := range fields {
		fields[k] = testField(m.NX, m.NY, k)
	}
	fields[5] = fields[5][:3]
	fields[8] = nil
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		paths, err := WriteEnsemble(dir, m, fields)
		if err == nil || paths != nil {
			t.Fatalf("malformed ensemble: paths %v, err %v", paths, err)
		}
		if !strings.Contains(err.Error(), "file 5 ") || !strings.Contains(err.Error(), "member_0005.senk") {
			t.Fatalf("err = %v, want member 5's", err)
		}
		assertNoTempFiles(t, dir)
	}
	levels := make([][][]float64, 6)
	for k := range levels {
		levels[k] = [][]float64{testField(m.NX, m.NY, k), testField(m.NX, m.NY, k+1)}
	}
	levels[2][1] = levels[2][1][:5]
	levels[4] = nil
	paths, err := WriteEnsembleLevels(t.TempDir(), m, levels)
	if err == nil || paths != nil || !strings.Contains(err.Error(), "file 2 ") {
		t.Fatalf("malformed multilevel ensemble: paths %v, err %v", paths, err)
	}
}
