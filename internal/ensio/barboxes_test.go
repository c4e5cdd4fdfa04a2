package ensio

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"senkf/internal/grid"
)

// writeGeneratedMember writes levels (each a row-major ny × nx field) as a
// version-2 file through WriteMemberLevels, or as a hand-laid version-1 file:
// 24-byte header, no checksum, the same level-interleaved payload.
func writeGeneratedMember(t *testing.T, path string, version, nx, ny int, levels [][]float64) {
	t.Helper()
	if version == Version {
		if err := WriteMemberLevels(path, Header{NX: nx, NY: ny, Member: 3}, levels); err != nil {
			t.Fatal(err)
		}
		return
	}
	nl := len(levels)
	file := make([]byte, headerSizeV1+8*nx*ny*nl)
	copy(file[0:4], Magic)
	binary.LittleEndian.PutUint32(file[4:8], 1)
	binary.LittleEndian.PutUint32(file[8:12], uint32(nx))
	binary.LittleEndian.PutUint32(file[12:16], uint32(ny))
	binary.LittleEndian.PutUint32(file[16:20], 3)
	binary.LittleEndian.PutUint32(file[20:24], uint32(nl))
	for p := 0; p < nx*ny; p++ {
		for l := range levels {
			binary.LittleEndian.PutUint64(file[headerSizeV1+8*(p*nl+l):], math.Float64bits(levels[l][p]))
		}
	}
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
}

// cutBox is the test's own reference: box b of a row-major field nx wide.
func cutBox(field []float64, nx int, b grid.Box) []float64 {
	var out []float64
	for y := b.Y0; y < b.Y1; y++ {
		out = append(out, field[y*nx+b.X0:y*nx+b.X1]...)
	}
	return out
}

// readBoxes is ReadBarBoxes into fresh slots, regrouped per box: out[i][l]
// is slot i·levels+l, level l over boxes[i].
func readBoxes(m *MemberFile, y0, y1 int, boxes []grid.Box) ([][][]float64, error) {
	nl := m.Header.LevelCount()
	slots := make([][]float64, len(boxes)*nl)
	if err := m.ReadBarBoxes(y0, y1, boxes, slots); err != nil {
		return nil, err
	}
	out := make([][][]float64, len(boxes))
	for i := range out {
		out[i] = slots[i*nl : (i+1)*nl]
	}
	return out, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReadBarBoxesGenerated drives the fused bar read over generated files,
// bars and boxes: every payload must equal the box cut from the fields the
// file was written from (and from what ReadBarLevels returns for the bar),
// and the read must cost one addressing operation however many boxes it
// serves.
func TestReadBarBoxesGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	dir := t.TempDir()
	span := func(n int) (int, int) { // a random non-empty [lo, hi) inside [0, n)
		lo := rng.Intn(n)
		return lo, lo + 1 + rng.Intn(n-lo)
	}
	for c := 0; c < 240; c++ {
		nx, ny, nl := 1+rng.Intn(12), 1+rng.Intn(10), 1+rng.Intn(3)
		version := 1 + c%2
		levels := make([][]float64, nl)
		for l := range levels {
			levels[l] = make([]float64, nx*ny)
			for i := range levels[l] {
				levels[l][i] = math.Float64frombits(rng.Uint64()) // any bit pattern, NaNs included
			}
		}
		path := MemberPath(dir, 3)
		writeGeneratedMember(t, path, version, nx, ny, levels)
		m, err := OpenMember(path)
		if err != nil {
			t.Fatalf("case %d: open v%d %dx%dx%d: %v", c, version, nx, ny, nl, err)
		}
		y0, y1 := span(ny)
		boxes := make([]grid.Box, 1+rng.Intn(4))
		for i := range boxes {
			b := grid.Box{}
			b.Y0, b.Y1 = span(y1 - y0)
			b.Y0, b.Y1 = b.Y0+y0, b.Y1+y0
			switch rng.Intn(3) {
			case 0: // full width
				b.X0, b.X1 = 0, nx
			case 1: // a single column
				b.X0 = rng.Intn(nx)
				b.X1 = b.X0 + 1
			default:
				b.X0, b.X1 = span(nx)
			}
			boxes[i] = b
		}

		before := m.Stats()
		got, err := readBoxes(m, y0, y1, boxes)
		if err != nil {
			t.Fatalf("case %d: ReadBarBoxes(%d, %d, %v): %v", c, y0, y1, boxes, err)
		}
		after := m.Stats()
		wantBytes := int64(8 * (y1 - y0) * nx * nl)
		if after.Seeks != before.Seeks+1 || after.Reads != before.Reads+1 || after.BytesRead != before.BytesRead+wantBytes || after.Retries != 0 {
			t.Errorf("case %d: %d boxes cost %+v → %+v, want one seek, one read, %d bytes", c, len(boxes), before, after, wantBytes)
		}
		bar, err := m.ReadBarLevels(y0, y1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(boxes) {
			t.Fatalf("case %d: %d payload sets for %d boxes", c, len(got), len(boxes))
		}
		for i, b := range boxes {
			if len(got[i]) != nl {
				t.Fatalf("case %d box %v: %d levels, want %d", c, b, len(got[i]), nl)
			}
			inBar := grid.Box{X0: b.X0, X1: b.X1, Y0: b.Y0 - y0, Y1: b.Y1 - y0}
			for l := range levels {
				if !sameBits(got[i][l], cutBox(levels[l], nx, b)) {
					t.Errorf("case %d (v%d %dx%dx%d) bar [%d,%d) box %v level %d differs from the written field", c, version, nx, ny, nl, y0, y1, b, l)
				}
				if !sameBits(got[i][l], cutBox(bar[l], nx, inBar)) {
					t.Errorf("case %d box %v level %d differs from ReadBarLevels + cut", c, b, l)
				}
			}
		}
		m.Close()
	}
}

func TestReadBarBoxesRejectsBadBoxes(t *testing.T) {
	path, _ := writeTestLevels(t, 6, 5, 2)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inside := grid.Box{X0: 1, X1: 3, Y0: 1, Y1: 3}
	for name, bad := range map[string]grid.Box{
		"above the bar":  {X0: 0, X1: 6, Y0: 0, Y1: 2},
		"below the bar":  {X0: 0, X1: 6, Y0: 3, Y1: 5},
		"past the mesh":  {X0: 4, X1: 7, Y0: 1, Y1: 2},
		"negative x":     {X0: -1, X1: 2, Y0: 1, Y1: 2},
		"zero box":       {},
		"no columns":     {X0: 2, X1: 2, Y0: 1, Y1: 3},
		"inverted rows":  {X0: 0, X1: 6, Y0: 3, Y1: 1},
		"outside, empty": {X0: 9, X1: 9, Y0: 9, Y1: 9},
	} {
		if _, err := readBoxes(m, 1, 4, []grid.Box{inside, bad}); err == nil {
			t.Errorf("%s: box %v accepted for bar rows [1,4)", name, bad)
		}
	}
	if st := m.Stats(); st.Seeks != 0 || st.Reads != 0 {
		t.Errorf("rejected requests still read: %+v", st)
	}
	if _, err := readBoxes(m, 2, 2, nil); err == nil {
		t.Error("empty bar accepted")
	}
	for _, slots := range []int{0, 1, 3} { // two levels: one box takes two slots
		if err := m.ReadBarBoxes(1, 4, []grid.Box{inside}, make([][]float64, slots)); err == nil {
			t.Errorf("%d payload slots accepted for one box of two levels", slots)
		}
	}
	if st := m.Stats(); st.Seeks != 0 || st.Reads != 0 {
		t.Errorf("rejected requests still read: %+v", st)
	}
	if _, err := readBoxes(m, 1, 4, []grid.Box{inside}); err != nil {
		t.Errorf("valid box rejected: %v", err)
	}
}

// TestReadBarBoxesRetriesLikeReadBar: a transient hook failure is retried and
// counted by the fused read exactly as by ReadBar, and an exhausted budget
// fails the same way.
func TestReadBarBoxesRetriesLikeReadBar(t *testing.T) {
	path, field := writeIntegrityMember(t, t.TempDir(), 3, 6, 4)
	open := func(fails, attempts int) *MemberFile {
		hook := func(op string, member, attempt int) error {
			if op == "read" && attempt < fails {
				return testTransient{}
			}
			return nil
		}
		m, err := OpenMemberOpts(path, OpenOptions{Attempts: attempts, Hook: hook})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		return m
	}
	box := grid.Box{X0: 2, X1: 5, Y0: 1, Y1: 3}

	viaBar, viaBoxes := open(2, 3), open(2, 3)
	if _, err := viaBar.ReadBar(0, 4); err != nil {
		t.Fatal(err)
	}
	got, err := readBoxes(viaBoxes, 0, 4, []grid.Box{box})
	if err != nil {
		t.Fatalf("fused read with 2 transient failures under a 3-attempt budget: %v", err)
	}
	if !sameBits(got[0][0], cutBox(field, 6, box)) {
		t.Error("payload after retries differs from the written field")
	}
	if viaBoxes.Stats() != viaBar.Stats() || viaBoxes.Stats().Retries != 2 {
		t.Errorf("fused read stats %+v, ReadBar stats %+v, want equal with 2 retries", viaBoxes.Stats(), viaBar.Stats())
	}

	_, errBar := open(5, 3).ReadBar(0, 4)
	_, errBoxes := readBoxes(open(5, 3), 0, 4, []grid.Box{box})
	if errBar == nil || errBoxes == nil || errBar.Error() != errBoxes.Error() || !strings.Contains(errBoxes.Error(), "after 3 attempts") {
		t.Errorf("exhausted budget: fused read %v, ReadBar %v", errBoxes, errBar)
	}
}

// TestReadsDoNotAlias: the raw-byte scratch is reused from read to read, the
// results are not — a later read must leave an earlier result as it was.
func TestReadsDoNotAlias(t *testing.T) {
	path, levels := writeTestLevels(t, 7, 6, 2)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	boxA, boxB := grid.Box{X0: 0, X1: 7, Y0: 0, Y1: 3}, grid.Box{X0: 1, X1: 6, Y0: 3, Y1: 6}
	first, err := readBoxes(m, 0, 3, []grid.Box{boxA})
	if err != nil {
		t.Fatal(err)
	}
	second, err := readBoxes(m, 3, 6, []grid.Box{boxB})
	if err != nil {
		t.Fatal(err)
	}
	block, err := m.ReadBlockLevels(boxB)
	if err != nil {
		t.Fatal(err)
	}
	for l := range levels {
		if !sameBits(first[0][l], cutBox(levels[l], 7, boxA)) {
			t.Errorf("level %d of the first read changed under the later reads", l)
		}
		if !sameBits(second[0][l], cutBox(levels[l], 7, boxB)) || !sameBits(block[l], second[0][l]) {
			t.Errorf("level %d: bar and block reads of %v disagree with the field", l, boxB)
		}
		second[0][l][0]++ // results are the caller's to write
		if sameBits(block[l], second[0][l]) {
			t.Errorf("level %d: two results share memory", l)
		}
	}
}

// TestNarrowBlockStillSeeksPerRow: block reading keeps its addressing cost —
// one seek, one read and width·levels values per row.
func TestNarrowBlockStillSeeksPerRow(t *testing.T) {
	path, _ := writeTestLevels(t, 8, 6, 3)
	m, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	b := grid.Box{X0: 2, X1: 7, Y0: 1, Y1: 5}
	if _, err := m.ReadBlockLevels(b); err != nil {
		t.Fatal(err)
	}
	want := IOStats{Seeks: 4, Reads: 4, BytesRead: int64(8 * b.Points() * 3)}
	if st := m.Stats(); st != want {
		t.Errorf("narrow block read cost %+v, want %+v", st, want)
	}
}

// TestReadsOverwriteRecycledPayloads gives every payload back poisoned — all
// NaN, in bundles of mixed sizes — and reads on: whatever the pool hands a
// read (a payload that fits, a larger one resliced, nothing for one too
// small), each value returned is the file's, and a payload the caller kept is
// never handed out again.
func TestReadsOverwriteRecycledPayloads(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const nx, ny, nl = 11, 9, 2
	levels := make([][]float64, nl)
	for l := range levels {
		levels[l] = make([]float64, nx*ny)
		for i := range levels[l] {
			levels[l][i] = rng.NormFloat64()
		}
	}
	path := t.TempDir() + "/m.senk"
	writeGeneratedMember(t, path, Version, nx, ny, levels)
	mf, err := OpenMember(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()

	var kept [][]float64 // payloads never given back, with what they must hold
	var keptWant [][]float64
	for round := 0; round < 200; round++ {
		y0 := rng.Intn(ny)
		y1 := y0 + 1 + rng.Intn(ny-y0)
		x0 := rng.Intn(nx)
		b := grid.Box{X0: x0, X1: x0 + 1 + rng.Intn(nx-x0), Y0: y0, Y1: y1}
		var got [][]float64
		if round%2 == 0 {
			out, err := readBoxes(mf, y0, y1, []grid.Box{b, {X0: 0, X1: nx, Y0: y0, Y1: y1}})
			if err != nil {
				t.Fatal(err)
			}
			got = out[0]
			Recycle(out[1])
		} else if got, err = mf.ReadBlockLevels(b); err != nil {
			t.Fatal(err)
		}
		for l := range got {
			if want := cutBox(levels[l], nx, b); !sameBits(got[l], want) {
				t.Fatalf("round %d: level %d of %v is not the file's", round, l, b)
			}
		}
		if round%5 == 0 {
			kept, keptWant = append(kept, got[0]), append(keptWant, cutBox(levels[0], nx, b))
			got = got[1:]
		}
		for _, p := range got {
			for i := range p {
				p[i] = math.NaN()
			}
		}
		Recycle(got)
	}
	for i := range kept {
		if !sameBits(kept[i], keptWant[i]) {
			t.Fatalf("kept payload %d was handed out again", i)
		}
	}
}
