package sparseart_test

import (
	"testing"

	"sparseart"
)

// TestPublicAPIEndToEnd drives the whole facade the way the quickstart
// example does: create a store per organization on real files, write,
// read a region back, and probe points.
func TestPublicAPIEndToEnd(t *testing.T) {
	shape := sparseart.Shape{16, 16, 16}
	coords := sparseart.NewCoords(3, 0)
	var values []float64
	for i := uint64(0); i < 16; i++ {
		coords.Append(i, i, (i*3)%16)
		values = append(values, float64(i)+0.5)
	}

	for _, kind := range sparseart.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			st, err := sparseart.CreateStore(t.TempDir(), kind, shape)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := st.Write(coords, values)
			if err != nil {
				t.Fatal(err)
			}
			if rep.NNZ != 16 || rep.Bytes <= 0 {
				t.Fatalf("write report %+v", rep)
			}
			region, err := sparseart.NewRegion(shape, []uint64{0, 0, 0}, []uint64{16, 16, 16})
			if err != nil {
				t.Fatal(err)
			}
			res, rrep, err := queryProbe(st, region.Coords())
			if err != nil {
				t.Fatal(err)
			}
			if res.Coords.Len() != 16 || rrep.Found != 16 {
				t.Fatalf("read %d points", res.Coords.Len())
			}
			vals, found, err := queryPoints(st, coords)
			if err != nil {
				t.Fatal(err)
			}
			for i := range values {
				if !found[i] || vals[i] != values[i] {
					t.Fatalf("point %d: %v %v", i, vals[i], found[i])
				}
			}
		})
	}
}

func TestOpenStoreReopens(t *testing.T) {
	dir := t.TempDir()
	shape := sparseart.Shape{8, 8}
	st, err := sparseart.CreateStore(dir, sparseart.LINEAR, shape)
	if err != nil {
		t.Fatal(err)
	}
	c := sparseart.NewCoords(2, 0)
	c.Append(3, 3)
	if _, err := st.Write(c, []float64{9}); err != nil {
		t.Fatal(err)
	}
	st2, err := sparseart.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	vals, found, err := queryPoints(st2, c)
	if err != nil || !found[0] || vals[0] != 9 {
		t.Fatalf("reopened store: %v %v %v", vals, found, err)
	}
}

func TestSimFSFacade(t *testing.T) {
	fs := sparseart.NewPerlmutterSim()
	st, err := sparseart.CreateStoreOn(fs, "t", sparseart.GCSC, sparseart.Shape{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	c := sparseart.NewCoords(2, 0)
	c.Append(1, 2)
	rep, err := st.Write(c, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Write <= 0 || rep.Others <= 0 {
		t.Fatalf("modeled phases empty: %+v", rep)
	}
	if _, err := sparseart.OpenStoreOn(fs, "t"); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().WriteOps == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestChunkedFacadeOverflow(t *testing.T) {
	fs := sparseart.NewPerlmutterSim()
	big := uint64(1) << 40
	shape := sparseart.Shape{big, big, big, big}
	tile := sparseart.Shape{1 << 12, 1 << 12, 1 << 12, 1 << 12}
	st, err := sparseart.CreateChunkedStore(fs, "huge", sparseart.CSF, shape, tile)
	if err != nil {
		t.Fatal(err)
	}
	c := sparseart.NewCoords(4, 0)
	c.Append(big-1, 0, big/2, 12345)
	if _, err := st.Write(c, []float64{3.5}); err != nil {
		t.Fatal(err)
	}
	res, _, err := queryProbe(st, c)
	if err != nil || res.Coords.Len() != 1 || res.Values[0] != 3.5 {
		t.Fatalf("chunked read back: %v %v", res, err)
	}
}

func TestGeneratorAndAdvisorFacade(t *testing.T) {
	cfg, err := sparseart.TableIIConfig(sparseart.TSP, 2, sparseart.ScaleSmall, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sparseart.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NNZ() == 0 {
		t.Fatal("empty dataset")
	}
	profile, err := sparseart.Characterize(ds.Coords, cfg.Shape)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sparseart.Recommend(profile, sparseart.BalancedWeights(), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Best.Valid() {
		t.Fatalf("recommendation %v", rec.Best)
	}
	if v := sparseart.ValueAt(ds.Coords.At(0)); v != ds.Values[0] {
		t.Fatal("ValueAt mismatch")
	}
}

func TestParseKindFacade(t *testing.T) {
	k, err := sparseart.ParseKind("GCSR++")
	if err != nil || k != sparseart.GCSR {
		t.Fatalf("ParseKind = %v, %v", k, err)
	}
}

func TestCodecFacade(t *testing.T) {
	fs := sparseart.NewPerlmutterSim()
	shape := sparseart.Shape{32, 32}
	c := sparseart.NewCoords(2, 0)
	var vals []float64
	for i := uint64(0); i < 32; i++ {
		c.Append(i, i)
		vals = append(vals, 1)
	}
	plain, err := sparseart.CreateStoreOn(fs, "plain", sparseart.COOSorted, shape)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := sparseart.CreateStoreOn(fs, "packed", sparseart.COOSorted, shape,
		sparseart.WithCodec(sparseart.CodecDeltaVarint))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	if _, err := packed.Write(c, vals); err != nil {
		t.Fatal(err)
	}
	if packed.TotalBytes() >= plain.TotalBytes() {
		t.Fatalf("codec did not shrink: %d vs %d", packed.TotalBytes(), plain.TotalBytes())
	}
}
