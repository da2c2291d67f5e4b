package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// tinyOpts keeps every experiment sub-second-ish for the unit suite.
func tinyOpts() Options {
	return Options{Scale: 0.004, Runs: 1, Seed: 1, MaxIter: 60, Budget: 2 * time.Minute, Quiet: true}
}

func parseCell(t *testing.T, cell string) (float64, bool) {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func TestTable4ShapeAndSanity(t *testing.T) {
	tab, err := Table4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 dataset rows, got %d", len(tab.Rows))
	}
	if len(tab.Header) != 13 { // Dataset + 12 methods
		t.Fatalf("want 13 columns, got %d (%v)", len(tab.Header), tab.Header)
	}
	// Every non-marker cell must be a finite RMS in [0, 1.5].
	for _, row := range tab.Rows {
		for ci, cell := range row[1:] {
			if cell == "OOT" || cell == "OOM" {
				continue
			}
			v, ok := parseCell(t, cell)
			if !ok {
				t.Fatalf("row %s col %s: unparseable cell %q", row[0], tab.Header[ci+1], cell)
			}
			if v < 0 || v > 1.5 {
				t.Fatalf("row %s col %s: implausible RMS %v", row[0], tab.Header[ci+1], v)
			}
		}
	}
}

func TestTable4SMFLBeatsNonSpatialBaselines(t *testing.T) {
	opts := tinyOpts()
	opts.Runs = 2
	opts.MaxIter = 200
	tab, err := Table4(opts)
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range tab.Header {
		col[h] = i
	}
	// Aggregate across datasets: the spatial methods must clearly beat the
	// non-spatial NMF baseline in total.
	var smflSum, nmfSum float64
	for _, row := range tab.Rows {
		smfl, ok := parseCell(t, row[col["SMFL"]])
		if !ok {
			t.Fatalf("%s: SMFL cell %q", row[0], row[col["SMFL"]])
		}
		nmf, ok := parseCell(t, row[col["NMF"]])
		if !ok {
			continue
		}
		smflSum += smfl
		nmfSum += nmf
	}
	if smflSum >= nmfSum {
		t.Errorf("total SMFL %.3f should beat total NMF %.3f", smflSum, nmfSum)
	}
}

func TestTable6Shape(t *testing.T) {
	tab, err := Table6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 || len(tab.Header) != 6 {
		t.Fatalf("shape %dx%d", len(tab.Rows), len(tab.Header))
	}
}

func TestTable7DegradesWithMissingRate(t *testing.T) {
	opts := tinyOpts()
	tab, err := Table7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 3 datasets × 3 methods
		t.Fatalf("want 9 rows, got %d", len(tab.Rows))
	}
	// RMS at 50% should not be dramatically better than at 10%.
	for _, row := range tab.Rows {
		lo, ok1 := parseCell(t, row[2])
		hi, ok2 := parseCell(t, row[6])
		if ok1 && ok2 && hi < 0.5*lo {
			t.Errorf("%s/%s: RMS improved sharply with more missing (%v -> %v)", row[0], row[1], lo, hi)
		}
	}
}

func TestFig4aRunsAndSMFLCompetitive(t *testing.T) {
	tab, err := Fig4a(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, row := range tab.Rows {
		if v, ok := parseCell(t, row[1]); ok {
			vals[row[0]] = v
		}
	}
	if len(vals) < 6 {
		t.Fatalf("too few successful methods: %v", vals)
	}
	if vals["SMFL"] >= vals["Mean"] {
		t.Errorf("SMFL fuel error %.4f should beat Mean %.4f", vals["SMFL"], vals["Mean"])
	}
}

func TestFig4bRuns(t *testing.T) {
	tab, err := Fig4b(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 clusterers, got %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		v, ok := parseCell(t, row[1])
		if !ok || v < 0 || v > 1 {
			t.Fatalf("%s: bad accuracy %q", row[0], row[1])
		}
	}
}

func TestFig5LandmarksAllInsideBox(t *testing.T) {
	tab, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] == "SMFL" {
			parts := strings.Split(row[1], "/")
			if parts[0] != parts[1] {
				t.Fatalf("SMFL features must all be inside the box: %s", row[1])
			}
		}
	}
}

func TestSweepsShape(t *testing.T) {
	opts := tinyOpts()
	f6, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Rows) != 4 { // 2 datasets × {SMF, SMFL}
		t.Fatalf("Fig6 rows = %d", len(f6.Rows))
	}
	f7, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Header) != 2+8 {
		t.Fatalf("Fig7 header = %v", f7.Header)
	}
	f8, err := Fig8(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Rows) != 4 {
		t.Fatalf("Fig8 rows = %d", len(f8.Rows))
	}
}

func TestFig9ProducesTimings(t *testing.T) {
	opts := tinyOpts()
	tab, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 { // 2 datasets × 8 methods
		t.Fatalf("Fig9 rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		for _, cell := range row[2:] {
			if cell == "OOT" || cell == "OOM" || cell == "ERR" {
				continue
			}
			if _, ok := parseCell(t, cell); !ok {
				t.Fatalf("bad timing cell %q in %v", cell, row)
			}
		}
	}
}

func TestAblationsRun(t *testing.T) {
	opts := tinyOpts()
	for _, fn := range []func(Options) (*Table, error){AblationLandmarkSource, AblationUpdater, AblationGraphBuild} {
		tab, err := fn(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", tab.Title)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"table4", "table5", "table6", "table7", "fig4a", "fig4b", "fig5", "fig6", "fig7", "fig8", "fig9"}
	for _, id := range want {
		if ByID(id) == nil {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if ByID("nope") != nil {
		t.Fatal("unknown ID should return nil")
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"A", "B"}, Rows: [][]string{{"x", "0.123"}}}
	var b strings.Builder
	tab.Fprint(&b)
	if s := b.String(); !strings.Contains(s, "T\n") || !strings.Contains(s, "0.123") {
		t.Fatalf("rendered table = %q", s)
	}
}

func TestFig1EmitsAllSeries(t *testing.T) {
	tab, err := Fig1(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]int{}
	for _, row := range tab.Rows {
		series[row[0]]++
	}
	for _, want := range []string{"observation", "NMF", "SMF", "SMFL"} {
		if series[want] == 0 {
			t.Fatalf("missing series %q (have %v)", want, series)
		}
	}
}

func TestTable3Summary(t *testing.T) {
	tab, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Columns must match the paper's shapes (13/13/7/7).
	want := map[string]string{"Economic": "13", "Farm": "13", "Lake": "7", "Vehicle": "7"}
	for _, row := range tab.Rows {
		if row[2] != want[row[0]] {
			t.Fatalf("%s columns = %s, want %s", row[0], row[2], want[row[0]])
		}
	}
}
