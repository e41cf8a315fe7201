package bench

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"sparseart/internal/gen"
)

func TestAblationSortedCOO(t *testing.T) {
	out, err := AblationSortedCOO(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "COO-sorted") || !strings.Contains(out, "ns/probe") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestAblationBCOO(t *testing.T) {
	out, err := AblationBCOO(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"BCOO", "3D TSP", "3D GSP", "3D MSP", "Bytes/point"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestAblationCSFDescent(t *testing.T) {
	out, err := AblationCSFDescent(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2D GSP") || !strings.Contains(out, "Binary") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestAblationScanVsProbe(t *testing.T) {
	out, err := AblationScanVsProbe(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := tableRows(t, out)
	if strings.Join(header, "|") != "Format|Window|Probe us|Scan us|Planner picks|Faster" {
		t.Fatalf("header %q:\n%s", header, out)
	}
	if len(rows) != 7*6 {
		t.Fatalf("%d rows, want 7 organizations × 6 window edges:\n%s", len(rows), out)
	}
	// The picks are deterministic (the timings are not): the planner
	// scans CSF's 32³ window and probes GCSR++'s single cell.
	picks := map[string]string{}
	for _, r := range rows {
		picks[r[0]+" "+r[1]] = r[4]
	}
	if picks["CSF 32^3"] != "scan" || picks["GCSR++ 1^3"] != "probe" {
		t.Fatalf("picks %v:\n%s", picks, out)
	}
}

func TestAblationCodecs(t *testing.T) {
	out, err := AblationCodecs(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"delta-varint", "rle", "vs none", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestRenderFig1MatchesPaper(t *testing.T) {
	out, err := RenderFig1()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's worked example, §II-E: nfibs {2,3,5},
	// fptr {0,2,3} and {0,1,3,5}; and the Fig. 1(a) linear addresses.
	for _, want := range []string{
		"nfibs: 2, 3, 5",
		"fptr[0]: 0, 2, 3",
		"fptr[1]: 0, 1, 3, 5",
		"fids[2]: 1, 1, 2, 1, 2",
		"25", "26", // LINEAR addresses of the last two points
		"row_ptr: 0, 3, 3, 5",
		"col_ptr: 0, 0, 3, 5",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig. 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestRenderAblationsAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation study")
	}
	var log bytes.Buffer
	out, err := RenderAblations(gen.Small, 42, &log)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "Ablation:") != 12 {
		t.Fatalf("expected 12 studies:\n%s", out)
	}
	if !strings.Contains(log.String(), "ablation codecs") {
		t.Fatalf("progress log: %q", log.String())
	}
}

func TestAblationProbeOrder(t *testing.T) {
	out, err := AblationProbeOrder(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"row-major", "shuffled", "shuffled+sorted", "Sort", "Total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestAblationModelValidation(t *testing.T) {
	out, err := AblationModelValidation(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Predicted ratio", "Measured ratio", "read vs COO", "build vs LINEAR", "CSF"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

// tableRows splits a rendered study into its header and body rows,
// cutting cells at the two-space column gaps.
func tableRows(t *testing.T, out string) (header []string, rows [][]string) {
	t.Helper()
	gap := regexp.MustCompile(`\s{2,}`)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "-") {
		t.Fatalf("not a study table:\n%s", out)
	}
	header = gap.Split(strings.TrimSpace(lines[1]), -1)
	for _, l := range lines[3:] {
		rows = append(rows, gap.Split(strings.TrimSpace(l), -1))
	}
	return header, rows
}

func TestAblationGCSCLayout(t *testing.T) {
	out, err := AblationGCSCLayout(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := tableRows(t, out)
	if strings.Join(header, "|") != "Format|Input order|Build|vs GCSR++" {
		t.Fatalf("header %q:\n%s", header, out)
	}
	want := []string{"GCSR++ row-major", "GCSC++ row-major", "GCSC++ column-major"}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d:\n%s", len(rows), len(want), out)
	}
	for i, r := range rows {
		if r[0]+" "+r[1] != want[i] {
			t.Fatalf("row %d is %q, want %q:\n%s", i, r[:2], want[i], out)
		}
	}
	if rows[0][3] != "1.00x" {
		t.Fatalf("GCSR++ is not its own baseline:\n%s", out)
	}
}

func TestAblationCompact(t *testing.T) {
	out, err := AblationCompact(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := tableRows(t, out)
	if strings.Join(header, "|") != "Store|Fragments read|Cold read|Found" {
		t.Fatalf("header %q:\n%s", header, out)
	}
	if len(rows) != 2 || rows[0][0] != "fragmented-16" || rows[1][0] != "compacted" {
		t.Fatalf("rows:\n%s", out)
	}
	if rows[0][1] != "16" || rows[1][1] != "1" {
		t.Fatalf("fragments read %s before and %s after Compact, want 16 and 1:\n%s", rows[0][1], rows[1][1], out)
	}
	if rows[0][3] != rows[1][3] {
		t.Fatalf("Compact changed the answer:\n%s", out)
	}
}

func TestAblationIngest(t *testing.T) {
	out, err := AblationIngest(gen.Small, 42)
	if err != nil {
		t.Fatal(err)
	}
	header, rows := tableRows(t, out)
	if strings.Join(header, "|") != "Store|Path|Wall|vs serial|Fragments|NNZ" {
		t.Fatalf("header %q:\n%s", header, out)
	}
	var arms []string
	for _, r := range rows {
		arms = append(arms, r[0]+" "+r[1])
		if r[5] != rows[0][5] {
			t.Errorf("%s %s reports %s points, %s %s reports %s", r[0], r[1], r[5], rows[0][0], rows[0][1], rows[0][5])
		}
	}
	want := "flat serial-Write|flat WriteBatch-1w|flat WriteBatch-4w|flat WriteBatch-8w|" +
		"chunked serial-Write|chunked WriteBatch-1w|chunked WriteBatch-4w|chunked WriteBatch-8w"
	if strings.Join(arms, "|") != want {
		t.Fatalf("arms %q:\n%s", arms, out)
	}
}
