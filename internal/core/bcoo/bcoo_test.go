package bcoo

import (
	"slices"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/core/coo"
	"sparseart/internal/core/coretest"
	"sparseart/internal/tensor"
)

// widthFormat builds payloads at a block width other than the 7 Build
// uses, to check Open reads every width its header accepts.
type widthFormat struct {
	Format
	bits uint8
}

func (f widthFormat) Build(c *tensor.Coords, shape tensor.Shape) (*core.BuildResult, error) {
	decl := func(s tensor.Shape) (core.Decl, error) { return blocks(s.Dims(), f.bits), nil }
	return core.Build(core.BCOO, c, shape, decl, header)
}

func TestConformanceDefaultBlocks(t *testing.T) {
	coretest.RunConformance(t, New())
}

func TestConformanceTinyBlocks(t *testing.T) {
	coretest.RunConformance(t, widthFormat{bits: 1})
}

func TestConformanceByteBlocks(t *testing.T) {
	coretest.RunConformance(t, widthFormat{bits: 8})
}

func TestKindAndParse(t *testing.T) {
	if New().Kind() != core.BCOO {
		t.Fatal("kind")
	}
	k, err := core.ParseKind("hicoo")
	if err != nil || k != core.BCOO {
		t.Fatalf("ParseKind(hicoo) = %v, %v", k, err)
	}
}

func TestBlockDirectoryStructure(t *testing.T) {
	// Points in two 4-cell blocks of a 16x16 tensor (bits=2).
	shape := tensor.Shape{16, 16}
	c := tensor.NewCoords(2, 0)
	c.Append(1, 2)  // block (0,0), local (1,2)
	c.Append(3, 3)  // block (0,0), local (3,3)
	c.Append(13, 6) // block (3,1), local (1,2)
	c.Append(12, 4) // block (3,1), local (0,0)
	f := widthFormat{bits: 2}
	built, err := f.Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	rd := r.(*core.Index)
	if blocks := rd.Crd(0); !slices.Equal(blocks, []uint64{0, 0, 3, 1}) {
		t.Fatalf("directory = %v", blocks)
	}
	if bptr := rd.Pos(1); !slices.Equal(bptr, []uint64{0, 2, 4}) {
		t.Fatalf("bptr = %v", bptr)
	}
	// Within block (3,1) the points sort by local offset: (0,0) then
	// (1,2), so input point 3 lands at slot 2.
	if built.Perm[3] != 2 || built.Perm[2] != 3 {
		t.Fatalf("perm = %v", built.Perm)
	}
}

func TestRejectsBadBlockBits(t *testing.T) {
	// The block width is payload bytes from outside: Open accepts
	// [1, 8] only, so offsets fit one byte.
	shape := tensor.Shape{8, 8}
	c := tensor.NewCoords(2, 1)
	c.Append(1, 1)
	built, err := New().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []byte{0, 9} {
		payload := slices.Clone(built.Payload)
		payload[6] = bits // magic u32 · dims u16 · bits u8
		if _, err := New().Open(payload, shape); err == nil {
			t.Fatalf("bits %d accepted", bits)
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
}

// TestClusteredDataBeatsCOO: the design claim — on clustered data BCOO's
// index is far below COO's d words per point.
func TestClusteredDataBeatsCOO(t *testing.T) {
	shape := tensor.Shape{4096, 4096}
	c := tensor.NewCoords(2, 0)
	// A dense 64x64 blob: exactly the clustered case.
	for x := uint64(1000); x < 1064; x++ {
		for y := uint64(2000); y < 2064; y++ {
			c.Append(x, y)
		}
	}
	bcooBuilt, err := New().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	cooBuilt, err := coo.New().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	if len(bcooBuilt.Payload)*4 > len(cooBuilt.Payload) {
		t.Fatalf("BCOO %d bytes vs COO %d: want at least 4x smaller on clustered data",
			len(bcooBuilt.Payload), len(cooBuilt.Payload))
	}
}

func TestLargeCoordinatesBeyondByteRange(t *testing.T) {
	// Block coordinates carry the high bits, so extents far beyond 256
	// must round-trip.
	shape := tensor.Shape{1 << 40, 1 << 20}
	c := tensor.NewCoords(2, 0)
	c.Append((1<<40)-1, (1<<20)-1)
	c.Append(0, 0)
	c.Append(123456789012, 987654)
	built, err := New().Build(c, shape)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New().Open(built.Payload, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i++ {
		if _, ok := r.Lookup(c.At(i)); !ok {
			t.Fatalf("point %v lost", c.At(i))
		}
	}
}

func FuzzOpen(f *testing.F) { coretest.FuzzOpen(f, New()) }
