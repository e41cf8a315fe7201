package bench

import (
	"bytes"
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
	for _, want := range []string{"Probe", "Scan", "Auto picks", "scan"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
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
	if strings.Count(out, "Ablation:") != 9 {
		t.Fatalf("expected 9 studies:\n%s", out)
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
