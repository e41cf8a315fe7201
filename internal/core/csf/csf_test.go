package csf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/core/coretest"
	"sparseart/internal/tensor"
)

func TestConformanceLinearDescent(t *testing.T) {
	coretest.RunConformance(t, New())
}

func TestConformanceBinaryDescent(t *testing.T) {
	coretest.RunConformance(t, Format{BinarySearch: true})
}

func TestKind(t *testing.T) {
	if New().Kind() != core.CSF {
		t.Fatal("kind")
	}
}

func buildTree(t *testing.T, f Format, shape tensor.Shape, c *tensor.Coords) Tree {
	t.Helper()
	built, err := f.Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	return r.(Tree)
}

// TestPaperFig1dStructure reproduces the worked example of §II-E: for
// the Fig. 1 tensor, nfibs = {2,3,5}, fids = {{0,2},{0,1,2},
// {1,1,2,1,2}}, and fptr = {{0,2,3},{0,1,3,5}}.
func TestPaperFig1dStructure(t *testing.T) {
	shape, c := coretest.PaperExample()
	tree := buildTree(t, New(), shape, c)

	wantNfibs := []uint64{2, 3, 5}
	for i, v := range wantNfibs {
		if tree.NFibs()[i] != v {
			t.Fatalf("nfibs = %v, want %v", tree.NFibs(), wantNfibs)
		}
	}
	wantFids := [][]uint64{{0, 2}, {0, 1, 2}, {1, 1, 2, 1, 2}}
	for lvl, want := range wantFids {
		got := tree.Fids()[lvl]
		if len(got) != len(want) {
			t.Fatalf("fids[%d] = %v, want %v", lvl, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fids[%d] = %v, want %v", lvl, got, want)
			}
		}
	}
	wantFptr := [][]uint64{{0, 2, 3}, {0, 1, 3, 5}}
	for lvl, want := range wantFptr {
		got := tree.Fptr()[lvl]
		if len(got) != len(want) {
			t.Fatalf("fptr[%d] = %v, want %v", lvl, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("fptr[%d] = %v, want %v", lvl, got, want)
			}
		}
	}
}

func TestDimOrderAscendingExtents(t *testing.T) {
	// Algorithm 2 line 6: dimensions sorted ascending by extent,
	// stably.
	cases := []struct {
		shape tensor.Shape
		want  []int
	}{
		{tensor.Shape{3, 3, 3}, []int{0, 1, 2}},
		{tensor.Shape{9, 2, 5}, []int{1, 2, 0}},
		{tensor.Shape{4, 4, 1}, []int{2, 0, 1}},
	}
	for _, tc := range cases {
		got := dimOrder(tc.shape)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("dimOrder(%v) = %v, want %v", tc.shape, got, tc.want)
			}
		}
	}
}

func TestDimPermutationAppliedOnAnisotropicShape(t *testing.T) {
	// With extents (8, 2, 4), the root level must index the size-2
	// dimension, so nfibs[0] <= 2 regardless of the data.
	shape := tensor.Shape{8, 2, 4}
	rng := rand.New(rand.NewSource(3))
	c := tensor.NewCoords(3, 0)
	for i := 0; i < 30; i++ {
		c.Append(uint64(rng.Intn(8)), uint64(rng.Intn(2)), uint64(rng.Intn(4)))
	}
	tree := buildTree(t, New(), shape, c)
	if tree.NFibs()[0] > 2 {
		t.Fatalf("root level has %d nodes for a size-2 dimension", tree.NFibs()[0])
	}
	if got := tree.DimOrder(); got[0] != 1 {
		t.Fatalf("DimOrder = %v, want dimension 1 first", got)
	}
}

// checkInvariants verifies the structural invariants DESIGN.md lists
// for every CSF tree.
func checkInvariants(t *testing.T, tree Tree, n int) {
	t.Helper()
	d := len(tree.DimOrder())
	if len(tree.NFibs()) != d || len(tree.Fids()) != d || len(tree.Fptr()) != d-1 {
		t.Fatal("level count mismatch")
	}
	for lvl := 0; lvl < d; lvl++ {
		if int(tree.NFibs()[lvl]) != len(tree.Fids()[lvl]) {
			t.Fatalf("level %d: nfibs %d != len(fids) %d", lvl, tree.NFibs()[lvl], len(tree.Fids()[lvl]))
		}
	}
	if tree.NNZ() != n {
		t.Fatalf("leaf count %d != %d points", tree.NNZ(), n)
	}
	for lvl := 0; lvl < d-1; lvl++ {
		ptr := tree.Fptr()[lvl]
		if len(ptr) != int(tree.NFibs()[lvl])+1 {
			t.Fatalf("fptr[%d] length %d, want %d", lvl, len(ptr), tree.NFibs()[lvl]+1)
		}
		if ptr[0] != 0 || ptr[len(ptr)-1] != tree.NFibs()[lvl+1] {
			t.Fatalf("fptr[%d] sentinels = %d..%d", lvl, ptr[0], ptr[len(ptr)-1])
		}
		for i := 1; i < len(ptr); i++ {
			if ptr[i] < ptr[i-1] {
				t.Fatalf("fptr[%d] not monotone at %d", lvl, i)
			}
			if ptr[i] == ptr[i-1] {
				t.Fatalf("fptr[%d]: node %d has no children", lvl, i-1)
			}
		}
		// Sibling coordinate runs must be strictly increasing.
		fids := tree.Fids()[lvl+1]
		for i := 0; i+1 < len(ptr); i++ {
			for j := ptr[i] + 1; j < ptr[i+1]; j++ {
				if fids[j] <= fids[j-1] {
					t.Fatalf("level %d siblings not strictly increasing", lvl+1)
				}
			}
		}
	}
}

func TestTreeInvariantsQuick(t *testing.T) {
	f := func(seed int64, n8 uint8, e0, e1, e2 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := tensor.Shape{uint64(e0)%7 + 1, uint64(e1)%7 + 1, uint64(e2)%7 + 1}
		vol, _ := shape.Volume()
		n := int(uint64(n8) % (vol + 1))
		seen := map[uint64]bool{}
		lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
		if err != nil {
			return false
		}
		c := tensor.NewCoords(3, n)
		p := make([]uint64, 3)
		for len(seen) < n {
			a := uint64(rng.Int63n(int64(vol)))
			if seen[a] {
				continue
			}
			seen[a] = true
			lin.Delinearize(a, p)
			c.Append(p...)
		}
		built, err := New().Build(c, shape)
		if err != nil {
			return false
		}
		r, err := New().Open(built.Payload, shape)
		if err != nil {
			return false
		}
		checkInvariants(t, r.(Tree), n)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLinearAndBinaryDescentAgreeQuick: the ablation variant must give
// identical answers to the paper-faithful linear descent.
func TestLinearAndBinaryDescentAgreeQuick(t *testing.T) {
	shape := tensor.Shape{12, 12, 12}
	rng := rand.New(rand.NewSource(19))
	c := tensor.NewCoords(3, 0)
	for i := 0; i < 250; i++ {
		c.Append(uint64(rng.Intn(12)), uint64(rng.Intn(12)), uint64(rng.Intn(12)))
	}
	linTree := buildTree(t, New(), shape, c)
	binTree := buildTree(t, Format{BinarySearch: true}, shape, c)
	f := func(x, y, z uint8) bool {
		p := []uint64{uint64(x) % 12, uint64(y) % 12, uint64(z) % 12}
		s1, ok1 := linTree.Lookup(p)
		s2, ok2 := binTree.Lookup(p)
		return ok1 == ok2 && (!ok1 || s1 == s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBestCaseCompaction(t *testing.T) {
	// A single fiber — all points share every prefix coordinate —
	// puts CSF at its best case O(n + d): one node per level except
	// the leaves.
	shape := tensor.Shape{16, 16, 16}
	c := tensor.NewCoords(3, 0)
	for z := uint64(0); z < 16; z++ {
		c.Append(7, 3, z)
	}
	tree := buildTree(t, New(), shape, c)
	if tree.NFibs()[0] != 1 || tree.NFibs()[1] != 1 || tree.NFibs()[2] != 16 {
		t.Fatalf("nfibs = %v, want {1,1,16}", tree.NFibs())
	}
	words := tree.IndexWords()
	if words > 16+2*3+3 { // leaves + two singleton levels + fptr sentinels + nfibs
		t.Fatalf("best case used %d words", words)
	}
}

func TestWorstCaseExpansion(t *testing.T) {
	// Points on the main diagonal share no prefixes: every level has n
	// nodes — the O(n*d) worst case.
	shape := tensor.Shape{16, 16, 16}
	c := tensor.NewCoords(3, 0)
	for i := uint64(0); i < 16; i++ {
		c.Append(i, i, i)
	}
	tree := buildTree(t, New(), shape, c)
	for lvl, n := range tree.NFibs() {
		if n != 16 {
			t.Fatalf("level %d has %d nodes, want 16", lvl, n)
		}
	}
}

func TestOpenRejectsShapeMismatch(t *testing.T) {
	shape, c := coretest.PaperExample()
	built, err := New().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Open(built.Payload, tensor.Shape{3, 3, 4}); err == nil {
		t.Fatal("payload opened under different shape")
	}
	// A header with no dimensions declares no levels.
	w := buf.NewWriter(8)
	w.U32(magic)
	w.U32(0)
	if _, err := New().Open(w.Bytes(), tensor.Shape{}); err == nil {
		t.Fatal("zero-dimension payload opened")
	}
}

func TestRejectsOutOfShapePoint(t *testing.T) {
	shape := tensor.Shape{4, 4}
	c := tensor.NewCoords(2, 1)
	c.Append(0, 4)
	if _, err := New().Build(c, shape); err == nil {
		t.Fatal("out-of-shape point accepted")
	}
}

func FuzzOpen(f *testing.F) { coretest.FuzzOpen(f, New()) }
