package sparseart_test

import (
	"context"
	"testing"

	"sparseart"
)

// TestFacadeCoverage exercises the thin facade wrappers end to end so
// the public surface stays wired to the internals.
func TestFacadeCoverage(t *testing.T) {
	if got := len(sparseart.Kinds()); got != 5 {
		t.Fatalf("Kinds() returned %d organizations", got)
	}

	lin, err := sparseart.NewLinearizer(sparseart.Shape{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if lin.Linearize([]uint64{1, 2}) != 6 {
		t.Fatal("linearizer wiring")
	}
	if _, err := sparseart.NewLinearizer(sparseart.Shape{0}); err == nil {
		t.Fatal("invalid shape accepted")
	}

	model := sparseart.CostModel{OpLatency: 1, Bandwidth: 1e6, Stripes: 1, StripeUnit: 1 << 20}
	if _, err := sparseart.NewSimFS(model); err != nil {
		t.Fatal(err)
	}
	if _, err := sparseart.NewSimFS(sparseart.CostModel{}); err == nil {
		t.Fatal("invalid cost model accepted")
	}

	w := sparseart.BalancedWeights()
	if w.Write != w.Read || w.Read != w.Space {
		t.Fatalf("BalancedWeights = %+v", w)
	}

	region, err := sparseart.ReadRegionFor(sparseart.Shape{100, 100})
	if err != nil || region.Start[0] != 50 {
		t.Fatalf("ReadRegionFor: %+v, %v", region, err)
	}

	if _, err := sparseart.TableIIConfig(sparseart.TSP, 9, sparseart.ScaleSmall, 1); err == nil {
		t.Fatal("9D Table II cell accepted")
	}

	if _, err := sparseart.ParseKind("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}

	d := sparseart.NewDenseMatrix(2, 3)
	d.Set(1, 2, 5)
	if d.At(1, 2) != 5 {
		t.Fatal("dense matrix wiring")
	}

	shape := sparseart.Shape{4, 4, 4}
	c := sparseart.NewCoords(3, 0)
	c.Append(1, 1, 1)
	tn, err := sparseart.NewSparseTensor(sparseart.CSF, shape, c, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := tn.TTV(0, []float64{1, 1, 1, 1})
	if err != nil || out[5] != 2 { // (1,1) of the 4x4 result
		t.Fatalf("TTV through facade: %v, %v", out, err)
	}

	if _, err := sparseart.NewSparseMatrix(sparseart.GCSR, sparseart.Shape{4}, nil, nil); err == nil {
		t.Fatal("1D sparse matrix accepted")
	}

	vals := sparseart.ValueAt([]uint64{1, 2, 3})
	if vals <= 0 {
		t.Fatalf("ValueAt = %v", vals)
	}

	dup := sparseart.NewCoords(2, 0)
	dup.Append(3, 3)
	dup.Append(3, 3)
	nc, nv, err := sparseart.Normalize(dup, []float64{1, 2}, sparseart.Shape{4, 4})
	if err != nil || nc.Len() != 1 || nv[0] != 2 {
		t.Fatalf("Normalize via facade: %v %v %v", nc, nv, err)
	}
}

func TestFacadeStoreErrors(t *testing.T) {
	if _, err := sparseart.OpenStore(t.TempDir()); err == nil {
		t.Fatal("empty directory opened as store")
	}
	fs := sparseart.NewPerlmutterSim()
	if _, err := sparseart.OpenStoreOn(fs, "missing"); err == nil {
		t.Fatal("missing prefix opened")
	}
	if _, err := sparseart.CreateStoreOn(fs, "x", sparseart.Kind(99), sparseart.Shape{4}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := sparseart.CreateChunkedStore(fs, "y", sparseart.COO,
		sparseart.Shape{10}, sparseart.Shape{4, 4}); err == nil {
		t.Fatal("tile rank mismatch accepted")
	}
}

func TestFacadeCompactAndScan(t *testing.T) {
	fs := sparseart.NewPerlmutterSim()
	shape := sparseart.Shape{8, 8}
	st, err := sparseart.CreateStoreOn(fs, "c", sparseart.BCOO, shape)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		c := sparseart.NewCoords(2, 0)
		c.Append(i, i)
		if _, err := st.Write(c, []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var rep *sparseart.CompactReport
	rep, err = st.Compact()
	if err != nil || rep.FragmentsAfter != 1 {
		t.Fatalf("compact via facade: %+v, %v", rep, err)
	}
	region, err := sparseart.NewRegion(shape, []uint64{0, 0}, []uint64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	probeRes, _, err := queryProbe(st, region.Coords())
	if err != nil || probeRes.Coords.Len() != 3 {
		t.Fatalf("window probe via facade: %v, %v", probeRes, err)
	}
	planned, _, err := st.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
	if err != nil || planned.Coords.Len() != 3 {
		t.Fatalf("planned region read via facade: %v, %v", planned, err)
	}
}
