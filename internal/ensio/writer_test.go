package ensio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// WriteBatch hands seen the bytes that land on disk, once per file, and the
// files are the ones WriteMemberLevels writes.
func TestWriteBatchSeenImageIsTheFile(t *testing.T) {
	dir := t.TempDir()
	const n = 11
	m := grid.Mesh{NX: 9, NY: 5}
	path := func(i int) string { return filepath.Join(dir, fmt.Sprintf("f%02d.senk", i)) }
	var mu sync.Mutex
	images := map[int][]byte{}
	err := WriteBatch(n, func(i int) (string, Header, [][]float64) {
		return path(i), Header{NX: m.NX, NY: m.NY, Member: i}, [][]float64{oddField(m.NX, m.NY, i), oddField(m.NX, m.NY, i+50)}
	}, func(i int, image []byte) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := images[i]; dup {
			t.Errorf("file %d seen twice", i)
		}
		images[i] = append([]byte(nil), image...)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := os.ReadFile(path(i))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, images[i]) {
			t.Fatalf("file %d: the image seen is not the file written", i)
		}
		single := filepath.Join(dir, "single.senk")
		if err := WriteMemberLevels(single, Header{NX: m.NX, NY: m.NY, Member: i},
			[][]float64{oddField(m.NX, m.NY, i), oddField(m.NX, m.NY, i+50)}); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(single)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("file %d differs from WriteMemberLevels' file", i)
		}
	}
	assertNoTempFiles(t, dir)
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
