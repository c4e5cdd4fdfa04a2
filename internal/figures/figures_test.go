package figures

import (
	"math"
	"strings"
	"testing"
)

func quickSuite() *Suite { return NewSuite(QuickOptions()) }

func seriesByLabel(t *testing.T, f Figure, label string) Series {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("%s: no series %q (have %v)", f.ID, label, labels(f))
	return Series{}
}

func labels(f Figure) []string {
	var out []string
	for _, s := range f.Series {
		out = append(out, s.Label)
	}
	return out
}

func TestFig01IOShareGrows(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig01()
	if err != nil {
		t.Fatal(err)
	}
	io := seriesByLabel(t, f, "I/O %")
	for i := 1; i < len(io.Y); i++ {
		if io.Y[i] <= io.Y[i-1] {
			t.Errorf("I/O share not growing: %v", io.Y)
		}
	}
	comp := seriesByLabel(t, f, "computation %")
	for i := range io.Y {
		if math.Abs(io.Y[i]+comp.Y[i]-100) > 1e-9 {
			t.Errorf("shares do not sum to 100 at %d", i)
		}
	}
}

// The read-only ablations compile a plan, so a swept decomposition that does
// not divide its mesh stops the figure and the bare senkf-bench with it.
func TestSweptDecompositionsDivideTheMesh(t *testing.T) {
	for name, o := range map[string]Options{"paper": PaperOptions(), "quick": QuickOptions()} {
		for _, nsdx := range o.Fig5NSdxs {
			if o.Cfg.P.NX%nsdx != 0 {
				t.Errorf("%s: Figure 5 n_sdx = %d does not divide n_x = %d", name, nsdx, o.Cfg.P.NX)
			}
		}
		for fig, nsdy := range map[string]int{"5": o.Fig5NSdy, "10": o.Fig10NSdy} {
			if o.Cfg.P.NY%nsdy != 0 {
				t.Errorf("%s: Figure %s n_sdy = %d does not divide n_y = %d", name, fig, nsdy, o.Cfg.P.NY)
			}
		}
	}
}

func TestFig05RoughlyLinear(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig05()
	if err != nil {
		t.Fatal(err)
	}
	ser := seriesByLabel(t, f, "block reading time (s)")
	if len(ser.X) != len(s.O.Fig5NSdxs) {
		t.Fatalf("series has %d points", len(ser.X))
	}
	for i := 1; i < len(ser.Y); i++ {
		if ser.Y[i] <= ser.Y[i-1] {
			t.Errorf("block reading time not increasing: %v", ser.Y)
		}
	}
	// Linearity: time/nsdx within a factor of 2 across the sweep.
	first := ser.Y[0] / ser.X[0]
	last := ser.Y[len(ser.Y)-1] / ser.X[len(ser.X)-1]
	if r := last / first; r < 0.5 || r > 2 {
		t.Errorf("per-n_sdx cost ratio %g not roughly constant", r)
	}
}

func TestFig09PhaseTrends(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig09()
	if err != nil {
		t.Fatal(err)
	}
	pRead := seriesByLabel(t, f, "P-EnKF read")
	pComp := seriesByLabel(t, f, "P-EnKF compute")
	n := len(pRead.Y)
	if !(pComp.Y[n-1] < pComp.Y[0]) {
		t.Errorf("P-EnKF compute did not shrink: %v", pComp.Y)
	}
	if !(pRead.Y[n-1] > pRead.Y[0]) {
		t.Errorf("P-EnKF read did not grow: %v", pRead.Y)
	}
	sComp := seriesByLabel(t, f, "S-EnKF cp compute")
	if !(sComp.Y[n-1] < sComp.Y[0]) {
		t.Errorf("S-EnKF compute did not shrink: %v", sComp.Y)
	}
}

func TestFig10DropThenFlat(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	ser := seriesByLabel(t, f, "concurrent read time (s)")
	if len(ser.Y) < 4 {
		t.Fatalf("too few points: %v", ser.Y)
	}
	if !(ser.Y[1] < ser.Y[0] && ser.Y[2] < ser.Y[1]) {
		t.Errorf("no initial drop: %v", ser.Y)
	}
	last, prev := ser.Y[len(ser.Y)-1], ser.Y[len(ser.Y)-2]
	if last < 0.7*prev {
		t.Errorf("no flattening at the end: %v", ser.Y)
	}
}

func TestFig11OverlapSustained(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	ov := seriesByLabel(t, f, "overlapped share of I/O+comm %")
	for _, v := range ov.Y {
		if v < 50 || v > 100 {
			t.Errorf("overlap share %v outside the sustained band", ov.Y)
			break
		}
	}
}

func TestFig12ModelTracksMeasurement(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	model := seriesByLabel(t, f, "model T1 (s)")
	meas := seriesByLabel(t, f, "measured T1 (s)")
	if len(model.Y) != len(meas.Y) || len(model.Y) == 0 {
		t.Fatalf("curve lengths: model %d, measured %d", len(model.Y), len(meas.Y))
	}
	// Both curves decrease overall from the first to the last point.
	if !(model.Y[len(model.Y)-1] < model.Y[0]) {
		t.Errorf("model curve not decreasing: %v", model.Y)
	}
	if !(meas.Y[len(meas.Y)-1] < meas.Y[0]) {
		t.Errorf("measured curve not decreasing overall: %v", meas.Y)
	}
	// The model is an idealization; it must at least be within an order of
	// magnitude of the measurement everywhere.
	for i := range model.Y {
		r := model.Y[i] / meas.Y[i]
		if r < 0.1 || r > 10 {
			t.Errorf("point %d: model %g vs measured %g", i, model.Y[i], meas.Y[i])
		}
	}
	if len(f.Notes) < 2 {
		t.Error("expected economic-choice notes")
	}
}

func TestFig13SpeedupAtScale(t *testing.T) {
	s := quickSuite()
	f, err := s.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	sp := seriesByLabel(t, f, "speedup")
	last := sp.Y[len(sp.Y)-1]
	if last < 1.5 {
		t.Errorf("speedup at max processors %.2f, want > 1.5", last)
	}
	// Speedup grows with the processor count.
	if !(sp.Y[len(sp.Y)-1] > sp.Y[0]) {
		t.Errorf("speedup not growing: %v", sp.Y)
	}
	senkf := seriesByLabel(t, f, "S-EnKF runtime (s)")
	for i := 1; i < len(senkf.Y); i++ {
		if senkf.Y[i] >= senkf.Y[i-1] {
			t.Errorf("S-EnKF runtime not strictly improving: %v", senkf.Y)
		}
	}
}

func TestAllRunsEveryFigure(t *testing.T) {
	s := quickSuite()
	figs, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 7 {
		t.Fatalf("got %d figures, want 7", len(figs))
	}
	wantIDs := []string{"Figure 1", "Figure 5", "Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13"}
	for i, f := range figs {
		if f.ID != wantIDs[i] {
			t.Errorf("figure %d is %q, want %q", i, f.ID, wantIDs[i])
		}
	}
}

func TestWriteTableRendering(t *testing.T) {
	f := Figure{
		ID: "Figure X", Title: "demo", XLabel: "x", YLabel: "y",
		Notes: []string{"a note"},
	}
	f.add("alpha", 1, 2)
	f.add("alpha", 2, 4)
	f.add("beta", 1, 8)
	var sb strings.Builder
	if err := f.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Figure X: demo", "alpha", "beta", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// Beta has no point at x=2: the row must still render.
	if !strings.Contains(out, "2") {
		t.Errorf("missing x=2 row:\n%s", out)
	}
}

func TestSuiteCaching(t *testing.T) {
	s := quickSuite()
	a, err := s.PEnKFAt(60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.PEnKFAt(60)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runtime != b.Runtime {
		t.Error("cache returned different results")
	}
	if _, err := s.PEnKFAt(7); err == nil {
		t.Error("expected decomposition error for np=7")
	}
	if _, _, err := s.SEnKFAt(1); err == nil {
		t.Error("expected tuner failure for np=1")
	}
}

func TestAblationLadder(t *testing.T) {
	s := quickSuite()
	np := s.O.ProcCounts[len(s.O.ProcCounts)-1]
	abs, err := s.Ablations(np)
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) < 4 {
		t.Fatalf("only %d ablations", len(abs))
	}
	full := abs[0].Runtime
	for _, a := range abs[1:] {
		if a.Runtime < full {
			t.Errorf("%s (%.3fs) beat the full design (%.3fs)", a.Name, a.Runtime, full)
		}
	}
	var sb strings.Builder
	if err := WriteAblations(&sb, np, abs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "P-EnKF") || !strings.Contains(sb.String(), "L-EnKF") {
		t.Errorf("rendered ablations missing baselines:\n%s", sb.String())
	}
}

func TestWriteCSV(t *testing.T) {
	f := Figure{ID: "Figure X", XLabel: "x, axis"}
	f.add("a", 1, 2.5)
	f.add("b", 1, 3)
	f.add("b", 2, 4)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv:\n%s", out)
	}
	if lines[0] != `"x, axis",a,b` {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "1,2.5,3" {
		t.Errorf("row 1 %q", lines[1])
	}
	if lines[2] != "2,,4" {
		t.Errorf("row 2 %q (missing cell must be empty)", lines[2])
	}
}

func TestEpsilonSweep(t *testing.T) {
	s := quickSuite()
	np := s.O.ProcCounts[len(s.O.ProcCounts)-1]
	f, err := s.EpsilonSweep(np, []float64{1e-6, 1e-3, 1e-1})
	if err != nil {
		t.Fatal(err)
	}
	c1 := seriesByLabel(t, f, "economic C1 (I/O processors)")
	if len(c1.Y) != 3 {
		t.Fatalf("got %d points", len(c1.Y))
	}
	// Spending appetite never grows as eps grows.
	for i := 1; i < len(c1.Y); i++ {
		if c1.Y[i] > c1.Y[i-1] {
			t.Errorf("C1 grew with eps: %v", c1.Y)
		}
	}
	// Model time never improves as eps grows.
	tt := seriesByLabel(t, f, "model T_total (s)")
	for i := 1; i < len(tt.Y); i++ {
		if tt.Y[i] < tt.Y[i-1]-1e-12 {
			t.Errorf("model time improved with larger eps: %v", tt.Y)
		}
	}
	rt := seriesByLabel(t, f, "simulated runtime (s)")
	for _, v := range rt.Y {
		if v <= 0 {
			t.Errorf("bad runtime %g", v)
		}
	}
}
