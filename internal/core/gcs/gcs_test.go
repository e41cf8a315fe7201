package gcs

import (
	"errors"
	"math"
	"testing"

	"sparseart/internal/buf"

	"sparseart/internal/core"
	"sparseart/internal/core/coretest"
	"sparseart/internal/tensor"
)

func TestConformanceGCSR(t *testing.T) {
	coretest.RunConformance(t, NewRow())
}

func TestConformanceGCSC(t *testing.T) {
	coretest.RunConformance(t, NewCol())
}

func TestKinds(t *testing.T) {
	if NewRow().Kind() != core.GCSR || NewCol().Kind() != core.GCSC {
		t.Fatal("kinds")
	}
}

func TestGeometrySelectsSmallestExtent(t *testing.T) {
	// §II-C: the smallest dimension becomes the compressed axis and
	// the product of the rest the other axis.
	cases := []struct {
		shape              tensor.Shape
		orient             Orientation
		wantRows, wantCols uint64
	}{
		{tensor.Shape{3, 3, 3}, Row, 3, 9},
		{tensor.Shape{3, 3, 3}, Col, 9, 3},
		{tensor.Shape{8, 2, 4}, Row, 2, 32},
		{tensor.Shape{8, 2, 4}, Col, 32, 2},
		{tensor.Shape{128, 128, 128, 128}, Row, 128, 128 * 128 * 128},
		{tensor.Shape{7}, Row, 7, 1},
		{tensor.Shape{7}, Col, 1, 7},
	}
	for _, tc := range cases {
		rows, cols, err := geometry(tc.shape, tc.orient)
		if err != nil {
			t.Fatalf("geometry(%v, %d): %v", tc.shape, tc.orient, err)
		}
		if rows != tc.wantRows || cols != tc.wantCols {
			t.Errorf("geometry(%v, %d) = %dx%d, want %dx%d",
				tc.shape, tc.orient, rows, cols, tc.wantRows, tc.wantCols)
		}
	}
}

func TestGeometryRejectsOverflow(t *testing.T) {
	if _, _, err := geometry(tensor.Shape{1 << 32, 1 << 33}, Row); err == nil {
		t.Fatal("overflowing shape accepted")
	}
}

// TestPaperExampleCSRStructure checks the CSR packaging of the Fig. 1
// tensor against hand-computed values. The five points linearize to
// 1,4,5,25,26; with rows=3, cols=9 the 2D coordinates are (0,1) (0,4)
// (0,5) (2,7) (2,8), giving row_ptr {0,3,3,5} and col_ind {1,4,5,7,8}.
// (The paper's own Fig. 1(b) prints row_ptr "0,3,5,5" and col_ind
// "0,3,4,6,7", which is inconsistent with its Fig. 1(a) linear
// addresses and its Algorithm 1; we follow the algorithm.)
func TestPaperExampleCSRStructure(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRow().Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	rd := r.(reader)
	wantPtr := []uint64{0, 3, 3, 5}
	for i, v := range wantPtr {
		if rd.Ptr()[i] != v {
			t.Fatalf("row_ptr = %v, want %v", rd.Ptr(), wantPtr)
		}
	}
	wantInd := []uint64{1, 4, 5, 7, 8}
	for i, v := range wantInd {
		if rd.Ind()[i] != v {
			t.Fatalf("col_ind = %v, want %v", rd.Ind(), wantInd)
		}
	}
}

// TestPaperExampleCSCStructure hand-computes the GCSC++ packaging of
// the same tensor: cols=3 (the minimum extent), rows=9; the 2D
// coordinates (r,c) are (0,1) (1,1) (1,2) (8,1) (8,2); sorted by
// column, col_ptr is {0,0,3,5} and row_ind {0,1,8,1,8}.
func TestPaperExampleCSCStructure(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := NewCol().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCol().Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	rd := r.(reader)
	wantPtr := []uint64{0, 0, 3, 5}
	for i, v := range wantPtr {
		if rd.Ptr()[i] != v {
			t.Fatalf("col_ptr = %v, want %v", rd.Ptr(), wantPtr)
		}
	}
	wantInd := []uint64{0, 1, 8, 1, 8}
	for i, v := range wantInd {
		if rd.Ind()[i] != v {
			t.Fatalf("row_ind = %v, want %v", rd.Ind(), wantInd)
		}
	}
}

func TestPermMatchesSortOrder(t *testing.T) {
	// Input points at rows 2, 0, 2, 1 (of a 4x4 2D tensor) must sort
	// to rows 0,1,2,2 with ties broken by input order.
	shape := tensor.Shape{4, 4}
	c := tensor.NewCoords(2, 0)
	c.Append(2, 3) // slot 2
	c.Append(0, 0) // slot 0
	c.Append(2, 1) // slot 3... no: sorted by (row, col): (2,1) before (2,3)
	c.Append(1, 2) // slot 1
	built, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 2, 1}
	for i, p := range built.Perm {
		if p != want[i] {
			t.Fatalf("perm = %v, want %v", built.Perm, want)
		}
	}
}

func TestIndexWordsMatchesTableI(t *testing.T) {
	// Table I: GCS space is O(n + min extent) — n minor coordinates
	// plus (minExtent+1) pointers.
	shape, c := coretest.PaperExample()
	for _, f := range []Format{NewRow(), NewCol()} {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		minExt, _ := shape.MinExtent()
		want := c.Len() + int(minExt) + 1
		if w := r.(core.PayloadSizer).IndexWords(); w != want {
			t.Fatalf("orient %d: IndexWords = %d, want %d", f.Orient, w, want)
		}
	}
}

func TestRowAndColPayloadsAreNotInterchangeable(t *testing.T) {
	shape, c := coretest.PaperExample()
	row, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCol().Open(row.Payload, shape); err == nil {
		t.Fatal("GCSC opened a GCSR payload")
	}
}

func TestOpenRejectsShapeMismatch(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := NewRow().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRow().Open(built.Payload, tensor.Shape{3, 3, 4}); err == nil {
		t.Fatal("payload opened under different shape")
	}
}

func TestRejectsOutOfShapePoint(t *testing.T) {
	shape := tensor.Shape{4, 4}
	c := tensor.NewCoords(2, 1)
	c.Append(0, 9)
	if _, err := NewRow().Build(c, shape); err == nil {
		t.Fatal("out-of-shape point accepted")
	}
}

func TestAnisotropicMinExtentNotFirst(t *testing.T) {
	// When the smallest extent is an inner dimension the remap must
	// still resolve every point.
	shape := tensor.Shape{100, 2, 50}
	c := tensor.NewCoords(3, 0)
	c.Append(99, 1, 49)
	c.Append(0, 0, 0)
	c.Append(50, 1, 0)
	for _, f := range []Format{NewRow(), NewCol()} {
		built, err := f.Build(c, shape)
		if err != nil {
			t.Fatal(err)
		}
		r, err := f.Open(built.Payload, shape)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.Len(); i++ {
			if _, ok := r.Lookup(c.At(i)); !ok {
				t.Fatalf("orient %d: point %v lost", f.Orient, c.At(i))
			}
		}
	}
}

// TestDenseExtentOverflowRefused: on shape {2^64-1} GCSR++'s pointer
// axis has 2^64-1 rows, so ptr would need 2^64 entries. Build and Open
// refuse it with tensor.ErrOverflow instead of wrapping the length to 0
// and indexing past it.
func TestDenseExtentOverflowRefused(t *testing.T) {
	shape := tensor.Shape{math.MaxUint64}
	c := tensor.NewCoords(1, 1)
	c.Append(6)
	if _, err := NewRow().Build(c, shape); !errors.Is(err, tensor.ErrOverflow) {
		t.Fatalf("Build = %v, want tensor.ErrOverflow", err)
	}
	w := buf.NewWriter(64)
	w.U32(magic)
	w.U8(uint8(Row))
	w.U8(0)
	w.U16(1)
	w.RawU64s(shape)
	w.U64(math.MaxUint64) // rows: the minimum extent
	w.U64(1)              // cols
	w.U64(0)              // n
	if _, err := NewRow().Open(w.Bytes(), shape); !errors.Is(err, tensor.ErrOverflow) {
		t.Fatalf("Open = %v, want tensor.ErrOverflow", err)
	}
	// GCSC++ puts the same axis on the dense level.
	if _, err := NewCol().Build(c, shape); !errors.Is(err, tensor.ErrOverflow) {
		t.Fatalf("GCSC++ Build = %v, want tensor.ErrOverflow", err)
	}
}

func FuzzOpenRow(f *testing.F) { coretest.FuzzOpen(f, NewRow()) }

func FuzzOpenCol(f *testing.F) { coretest.FuzzOpen(f, NewCol()) }
