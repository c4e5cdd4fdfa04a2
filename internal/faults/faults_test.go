package faults

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestNilPlanIsInert(t *testing.T) {
	var pl *Plan
	if _, ok := pl.WindowAt(0, 1); ok {
		t.Error("nil plan has a window")
	}
	if f := pl.SlowdownFor("io/g0/r0"); f != 1 {
		t.Errorf("nil plan slowdown = %g", f)
	}
	if _, ok := pl.FaultFor(3); ok {
		t.Error("nil plan has a file fault")
	}
	if pl.Drops(3) {
		t.Error("nil plan drops a member")
	}
	if pl.DeadAt(0, 0, 0, 0) {
		t.Error("nil plan kills a rank")
	}
	if hook := pl.EnsioHook(); hook != nil {
		t.Error("nil plan yields a hook")
	}
	if err := pl.Validate(2, 2, 3, 12, 8); err != nil {
		t.Errorf("nil plan invalid: %v", err)
	}
	if err := pl.Apply(t.TempDir()); err != nil {
		t.Errorf("nil plan apply: %v", err)
	}
}

func TestWindowAt(t *testing.T) {
	pl := &Plan{OSTWindows: []OSTWindow{{OST: 2, Start: 1, End: 3, Factor: 0}}}
	if _, ok := pl.WindowAt(2, 0.5); ok {
		t.Error("window before start")
	}
	w, ok := pl.WindowAt(2, 1)
	if !ok || w.Factor != 0 {
		t.Errorf("window at start = %v %v", w, ok)
	}
	if _, ok := pl.WindowAt(2, 3); ok {
		t.Error("window at end (half-open)")
	}
	if _, ok := pl.WindowAt(1, 2); ok {
		t.Error("window on wrong OST")
	}
}

func TestDeathPredicates(t *testing.T) {
	pl := &Plan{Deaths: []RankDeath{
		{Group: 0, Reader: 1, BeforeStage: 2},
		{Group: 1, Reader: 0, At: 5.0},
	}}
	if pl.DeadAt(0, 1, 1, 99) {
		t.Error("stage-death fired early")
	}
	if !pl.DeadAt(0, 1, 2, 0) || !pl.DeadAt(0, 1, 3, 0) {
		t.Error("stage-death did not fire at/after its stage")
	}
	if pl.DeadAt(1, 0, 9, 4.9) {
		t.Error("time-death fired before At")
	}
	if !pl.DeadAt(1, 0, 0, 5.0) {
		t.Error("time-death did not fire at At")
	}
	// Real execution asks at t = 0, where time-based deaths never fire.
	if pl.DeadAt(1, 0, 99, 0) {
		t.Error("time-death fired at t = 0")
	}
}

// TestAdopt pins the failover assignment both substrates derive: per stage,
// which reader serves which dead rows, and that a row is fresh at exactly one
// stage — the one its failover is announced at.
func TestAdopt(t *testing.T) {
	const n, stages = 4, 4
	// diesBefore[row] is the first stage the row is dead at (9: never).
	cases := []struct {
		name       string
		diesBefore [n]int
		// serves[l][j] lists the rows reader j adopts at stage l (nil: none);
		// a dead reader is marked by the single entry −1.
		serves [stages][n][]int
	}{
		{name: "no deaths", diesBefore: [n]int{9, 9, 9, 9}},
		{
			name:       "one death",
			diesBefore: [n]int{9, 2, 9, 9},
			serves: [stages][n][]int{
				2: {nil, {-1}, {1}, nil},
				3: {nil, {-1}, {1}, nil},
			},
		},
		{
			// Rows 2 and 3 die one stage apart: row 2 goes to reader 3 first,
			// then both wrap past row n−1 to reader 0.
			name:       "adjacent deaths wrap",
			diesBefore: [n]int{9, 9, 1, 2},
			serves: [stages][n][]int{
				1: {nil, nil, {-1}, {2}},
				2: {{2, 3}, nil, {-1}, {-1}},
				3: {{2, 3}, nil, {-1}, {-1}},
			},
		},
		{
			name:       "whole group dead",
			diesBefore: [n]int{0, 0, 0, 0},
			serves: [stages][n][]int{
				{{-1}, {-1}, {-1}, {-1}}, {{-1}, {-1}, {-1}, {-1}},
				{{-1}, {-1}, {-1}, {-1}}, {{-1}, {-1}, {-1}, {-1}},
			},
		},
	}
	for _, c := range cases {
		dead := func(row, l int) bool { return l >= c.diesBefore[row] }
		freshAt := map[int][]int{} // row → stages it was reported fresh at
		for l := 0; l < stages; l++ {
			for j := 0; j < n; j++ {
				rows, fresh, alive := Adopt(j, n, l, dead)
				want := c.serves[l][j]
				if wantDead := len(want) == 1 && want[0] == -1; wantDead || !alive {
					if alive || !wantDead || rows != nil || fresh != nil {
						t.Errorf("%s: stage %d reader %d: alive=%v rows=%v fresh=%v, want dead=%v", c.name, l, j, alive, rows, fresh, wantDead)
					}
					continue
				}
				if !reflect.DeepEqual(rows, want) {
					t.Errorf("%s: stage %d reader %d adopts %v, want %v", c.name, l, j, rows, want)
				}
				for _, row := range fresh {
					freshAt[row] = append(freshAt[row], l)
				}
			}
		}
		for row, first := range c.diesBefore {
			// A row is adopted iff it dies in range while a reader outlives it.
			adoptable := false
			for _, other := range c.diesBefore {
				adoptable = adoptable || (first < stages && other > first)
			}
			if got := freshAt[row]; adoptable != (len(got) == 1) || (adoptable && got[0] != first) {
				t.Errorf("%s: row %d (dies before stage %d) fresh at stages %v", c.name, row, first, got)
			}
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name string
		pl   *Plan
	}{
		{"ost out of range", &Plan{OSTWindows: []OSTWindow{{OST: 9, Start: 0, End: 1}}}},
		{"empty window", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 2, End: 2}}}},
		{"factor below one", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 0, End: 1, Factor: 0.5}}}},
		{"slow straggler", &Plan{Stragglers: []Straggler{{Proc: "io/g0/r0", Factor: 0.2}}}},
		{"member out of range", &Plan{FileFaults: []FileFault{{Member: 12, Kind: FileMissing}}}},
		{"duplicate member", &Plan{FileFaults: []FileFault{{Member: 1, Kind: FileMissing}, {Member: 1, Kind: FileCorrupt}}}},
		{"transient without count", &Plan{FileFaults: []FileFault{{Member: 1, Kind: FileTransient}}}},
		{"death group range", &Plan{Deaths: []RankDeath{{Group: 5, Reader: 0, BeforeStage: 1}}}},
		{"death stage range", &Plan{Deaths: []RankDeath{{Group: 0, Reader: 0, BeforeStage: 3}}}},
		{"whole group dies", &Plan{Deaths: []RankDeath{
			{Group: 0, Reader: 0, BeforeStage: 1},
			{Group: 0, Reader: 1, BeforeStage: 2},
		}}},
		{"negative crash cycle", &Plan{Crash: &CycleCrash{Cycle: -1}}},
		{"NaN window start", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: math.NaN(), End: 1}}}},
		{"NaN window end", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 0, End: math.NaN()}}}},
		{"endless window", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 0, End: math.Inf(1)}}}},
		{"NaN window factor", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 0, End: 1, Factor: math.NaN()}}}},
		{"infinite window factor", &Plan{OSTWindows: []OSTWindow{{OST: 0, Start: 0, End: 1, Factor: math.Inf(1)}}}},
		{"NaN straggler", &Plan{Stragglers: []Straggler{{Proc: "io/g0/r0", Factor: math.NaN()}}}},
		{"infinite straggler", &Plan{Stragglers: []Straggler{{Proc: "io/g0/r0", Factor: math.Inf(1)}}}},
		{"NaN death time", &Plan{Deaths: []RankDeath{{Group: 0, Reader: 0, At: math.NaN()}}}},
	}
	for _, c := range cases {
		if err := c.pl.Validate(2, 2, 3, 12, 8); err == nil {
			t.Errorf("%s: validated", c.name)
		}
	}
	good := &Plan{
		OSTWindows: []OSTWindow{{OST: 1, Start: 0, End: 2, Factor: 3}},
		Stragglers: []Straggler{{Proc: "io/g0/r1", Factor: 2}},
		FileFaults: []FileFault{{Member: 3, Kind: FileTransient, Count: 2}},
		Deaths:     []RankDeath{{Group: 1, Reader: 1, BeforeStage: 1}},
		Crash:      &CycleCrash{Cycle: 4},
	}
	if err := good.Validate(2, 2, 3, 12, 8); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestCrashAfter(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.CrashAfter(0) {
		t.Error("nil plan crashes")
	}
	if (&Plan{}).CrashAfter(0) {
		t.Error("empty plan crashes")
	}
	pl := &Plan{Crash: &CycleCrash{Cycle: 2}}
	for i, want := range []bool{false, false, true, false} {
		if pl.CrashAfter(i) != want {
			t.Errorf("CrashAfter(%d) = %v", i, !want)
		}
	}
}

func TestEnsioHookDeterministicAttempts(t *testing.T) {
	pl := &Plan{FileFaults: []FileFault{{Member: 4, Kind: FileTransient, Count: 2}}}
	hook := pl.EnsioHook()
	if hook == nil {
		t.Fatal("nil hook")
	}
	for a := 0; a < 2; a++ {
		err := hook("read", 4, a)
		if err == nil {
			t.Fatalf("attempt %d did not fail", a)
		}
		var te *TransientError
		if !errors.As(err, &te) || !te.Transient() {
			t.Fatalf("attempt %d error %v is not transient", a, err)
		}
	}
	if err := hook("read", 4, 2); err != nil {
		t.Errorf("attempt 2 failed: %v", err)
	}
	if err := hook("read", 5, 0); err != nil {
		t.Errorf("unfaulted member failed: %v", err)
	}
}

func TestGenerateDeterministicAndScaling(t *testing.T) {
	g := Geometry{OSTs: 8, NCg: 2, NSdy: 4, L: 4, N: 24, Horizon: 10}
	a := Generate(7, 0.8, g)
	b := Generate(7, 0.8, g)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed/intensity produced different plans")
	}
	if empty := Generate(7, 0, g); len(empty.OSTWindows)+len(empty.FileFaults)+len(empty.Deaths)+len(empty.Stragglers) != 0 {
		t.Errorf("zero intensity produced faults: %+v", empty)
	}
	if err := a.Validate(g.NCg, g.NSdy, g.L, g.N, g.OSTs); err != nil {
		t.Errorf("generated plan invalid: %v", err)
	}
	hi := Generate(3, 1, g)
	if len(hi.OSTWindows) == 0 || len(hi.FileFaults) == 0 {
		t.Errorf("full intensity produced no I/O or file faults: %+v", hi)
	}
	if len(hi.Deaths) == 0 {
		t.Error("full intensity produced no rank death")
	}
	if err := hi.Validate(g.NCg, g.NSdy, g.L, g.N, g.OSTs); err != nil {
		t.Errorf("high-intensity plan invalid: %v", err)
	}
}

func TestApplyDamagesFiles(t *testing.T) {
	dir := t.TempDir()
	// Three fake member files: a 32-byte header surrogate plus payload.
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	for k := 0; k < 3; k++ {
		if err := os.WriteFile(memberPath(dir, k), append(make([]byte, 32), payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pl := &Plan{Seed: 11, FileFaults: []FileFault{
		{Member: 0, Kind: FileMissing},
		{Member: 1, Kind: FileTruncated, Offset: 40},
		{Member: 2, Kind: FileCorrupt, Offset: 10},
	}}
	if err := pl.Apply(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(memberPath(dir, 0)); !os.IsNotExist(err) {
		t.Error("member 0 still exists")
	}
	fi, err := os.Stat(memberPath(dir, 1))
	if err != nil || fi.Size() != 40 {
		t.Errorf("member 1 size = %v, %v", fi, err)
	}
	got, err := os.ReadFile(memberPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32+256 {
		t.Fatalf("member 2 length changed: %d", len(got))
	}
	diff := 0
	for i, b := range got[32:] {
		if b != payload[i] {
			diff++
			if i != 10 {
				t.Errorf("corruption at offset %d, want 10", i)
			}
		}
	}
	if diff != 1 {
		t.Errorf("corrupted %d bytes, want exactly 1", diff)
	}
	if !reflect.DeepEqual(filepath.Base(memberPath(dir, 2)), "member_0002.senk") {
		t.Errorf("member path mismatch: %s", memberPath(dir, 2))
	}
}
