package sparseart_test

import (
	"context"
	"fmt"
	"log"

	"sparseart"
)

// Example is the README quickstart: a 64x64x64 tensor stored as a
// Compressed Sparse Fiber tree, written once directly and once through
// the batched ingest pipeline, then read back with one Query.
func Example() {
	shape := sparseart.Shape{64, 64, 64}
	st, err := sparseart.CreateStoreOn(sparseart.NewPerlmutterSim(), "mytensor", sparseart.CSF, shape)
	if err != nil {
		log.Fatal(err)
	}

	coords := sparseart.NewCoords(3, 0)
	coords.Append(1, 2, 3)
	coords.Append(10, 20, 30)
	if _, err := st.Write(coords, []float64{1.5, 2.5}); err != nil {
		log.Fatal(err)
	}

	// Batched ingest: many fragments prepared on a worker pool,
	// committed in order, one report per batch. Write above is the
	// one-batch spelling of the same pipeline, so the bytes on disk do
	// not depend on how batches arrive.
	more := sparseart.NewCoords(3, 0)
	more.Append(5, 6, 7)
	more.Append(40, 40, 40)
	batches := []sparseart.Batch{{Coords: more, Values: []float64{3.5, 4.5}}}
	reps, err := st.WriteBatchContext(context.Background(), batches, 4)
	if err != nil {
		log.Fatal(err)
	}
	for i, rep := range reps {
		fmt.Printf("batch %d committed: %d points\n", i, rep.NNZ)
	}

	// Every read is one context-aware Query: a probe list or a
	// region, an as-of bound, a strategy.
	region, err := sparseart.NewRegion(shape, []uint64{0, 0, 0}, []uint64{16, 32, 32})
	if err != nil {
		log.Fatal(err)
	}
	res, rep, err := st.Query(context.Background(), sparseart.QueryRequest{
		Region: &region, AsOf: sparseart.AsOfLatest, Strategy: sparseart.StrategyAuto,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d points in %d fragments\n", res.Coords.Len(), rep.Fragments)
	for i := 0; i < res.Coords.Len(); i++ {
		fmt.Println(res.Coords.At(i), res.Values[i])
	}
	// Output:
	// batch 0 committed: 2 points
	// found 3 points in 2 fragments
	// [1 2 3] 1.5
	// [5 6 7] 3.5
	// [10 20 30] 2.5
}

// ExampleCreateStoreOn writes a small tensor in the CSF organization
// and reads a region back, on the simulated Lustre backend.
func ExampleCreateStoreOn() {
	fs := sparseart.NewPerlmutterSim()
	shape := sparseart.Shape{8, 8, 8}
	st, err := sparseart.CreateStoreOn(fs, "demo", sparseart.CSF, shape)
	if err != nil {
		log.Fatal(err)
	}

	coords := sparseart.NewCoords(3, 0)
	coords.Append(1, 2, 3)
	coords.Append(4, 5, 6)
	if _, err := st.Write(coords, []float64{1.5, 2.5}); err != nil {
		log.Fatal(err)
	}

	region, err := sparseart.NewRegion(shape, []uint64{0, 0, 0}, []uint64{8, 8, 8})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := st.Query(context.Background(), sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < res.Coords.Len(); i++ {
		fmt.Println(res.Coords.At(i), res.Values[i])
	}
	// Output:
	// [1 2 3] 1.5
	// [4 5 6] 2.5
}

// ExampleAlignPoints probes individual cells and lays the answer out
// along the probe, with a found mask.
func ExampleAlignPoints() {
	fs := sparseart.NewPerlmutterSim()
	st, err := sparseart.CreateStoreOn(fs, "demo", sparseart.GCSR, sparseart.Shape{4, 4})
	if err != nil {
		log.Fatal(err)
	}
	coords := sparseart.NewCoords(2, 0)
	coords.Append(1, 1)
	if _, err := st.Write(coords, []float64{42}); err != nil {
		log.Fatal(err)
	}

	probe := sparseart.NewCoords(2, 0)
	probe.Append(1, 1)
	probe.Append(2, 2)
	res, _, err := st.Query(context.Background(), sparseart.QueryRequest{Probe: probe, AsOf: sparseart.AsOfLatest})
	if err != nil {
		log.Fatal(err)
	}
	vals, found := sparseart.AlignPoints(probe, res)
	fmt.Println(vals[0], found[0])
	fmt.Println(vals[1], found[1])
	// Output:
	// 42 true
	// 0 false
}

// ExampleRecommend characterizes a diagonal dataset and asks the
// advisor for a space-optimal organization.
func ExampleRecommend() {
	shape := sparseart.Shape{128, 128}
	coords := sparseart.NewCoords(2, 0)
	for i := uint64(0); i < 128; i++ {
		coords.Append(i, i)
	}
	profile, err := sparseart.Characterize(coords, shape)
	if err != nil {
		log.Fatal(err)
	}
	rec, err := sparseart.Recommend(profile, sparseart.Weights{Space: 1}, 0.01)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rec.Best)
	// Output:
	// LINEAR
}

// ExampleGenerate synthesizes one of the paper's Table II datasets.
func ExampleGenerate() {
	cfg, err := sparseart.TableIIConfig(sparseart.GSP, 2, sparseart.ScaleSmall, 42)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := sparseart.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg.Shape, ds.NNZ() > 9000 && ds.NNZ() < 12000)
	// Output:
	// 1024x1024 true
}

// ExampleCG solves a small SPD system through a stored sparse matrix.
func ExampleCG() {
	// The 3x3 system 2x - y pattern: [[2,-1,0],[-1,2,-1],[0,-1,2]].
	shape := sparseart.Shape{3, 3}
	coords := sparseart.NewCoords(2, 0)
	vals := []float64{}
	add := func(i, j uint64, v float64) {
		coords.Append(i, j)
		vals = append(vals, v)
	}
	add(0, 0, 2)
	add(0, 1, -1)
	add(1, 0, -1)
	add(1, 1, 2)
	add(1, 2, -1)
	add(2, 1, -1)
	add(2, 2, 2)

	m, err := sparseart.NewSparseMatrix(sparseart.GCSR, shape, coords, vals)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sparseart.CG(m.SpMV, []float64{1, 0, 1}, 10, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%v x=[%.0f %.0f %.0f]\n", res.Converged, res.X[0], res.X[1], res.X[2])
	// Output:
	// converged=true x=[1 1 1]
}

// ExampleConvertStore migrates a store to another organization.
func ExampleConvertStore() {
	fs := sparseart.NewPerlmutterSim()
	src, err := sparseart.CreateStoreOn(fs, "src", sparseart.COO, sparseart.Shape{8, 8})
	if err != nil {
		log.Fatal(err)
	}
	coords := sparseart.NewCoords(2, 0)
	coords.Append(3, 4)
	if _, err := src.Write(coords, []float64{7}); err != nil {
		log.Fatal(err)
	}

	dst, _, err := sparseart.ConvertStore(context.Background(), src, fs, "dst", sparseart.CSF, sparseart.ConvertConfig{})
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := dst.Query(context.Background(), sparseart.QueryRequest{Probe: coords, AsOf: sparseart.AsOfLatest})
	if err != nil {
		log.Fatal(err)
	}
	vals, found := sparseart.AlignPoints(coords, res)
	fmt.Println(dst.Kind(), vals[0], found[0])
	// Output:
	// CSF 7 true
}
