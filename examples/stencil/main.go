// Stencil: the Tridiagonal Sparse Pattern (TSP) use case — the paper
// points at "stencil computing for solving partial differential
// equations" (§III). A 3D 7-point Laplacian stencil over a k x k grid
// yields a k² x k² sparse matrix whose entries hug the diagonal; this
// example assembles that operator, stores it in every organization, and
// then dissects the CSF tree to show how diagonal banding drives the
// paper's Figure 4 observation that CSF's size varies with the pattern.
package main

import (
	"fmt"
	"log"

	"sparseart"
	"sparseart/internal/core"
	"sparseart/internal/core/csf"
	"sparseart/internal/fragment"
)

const grid = 48 // grid points per side; the matrix is grid² x grid²

// assemble builds the 5-point 2D Laplacian system matrix in COO form.
func assemble() (sparseart.Shape, *sparseart.Coords, []float64) {
	n := uint64(grid * grid)
	shape := sparseart.Shape{n, n}
	coords := sparseart.NewCoords(2, 0)
	var vals []float64
	idx := func(i, j uint64) uint64 { return i*grid + j }
	add := func(r, c uint64, v float64) {
		coords.Append(r, c)
		vals = append(vals, v)
	}
	for i := uint64(0); i < grid; i++ {
		for j := uint64(0); j < grid; j++ {
			r := idx(i, j)
			add(r, r, 4)
			if i > 0 {
				add(r, idx(i-1, j), -1)
			}
			if i < grid-1 {
				add(r, idx(i+1, j), -1)
			}
			if j > 0 {
				add(r, idx(i, j-1), -1)
			}
			if j < grid-1 {
				add(r, idx(i, j+1), -1)
			}
		}
	}
	return shape, coords, vals
}

func main() {
	shape, coords, vals := assemble()
	vol, _ := shape.Volume()
	fmt.Printf("2D Laplacian operator: %v matrix, %d non-zeros (density %.4f%%)\n\n",
		shape, coords.Len(), 100*float64(coords.Len())/float64(vol))

	fs := sparseart.NewPerlmutterSim()
	fmt.Printf("%-10s  %10s  %14s\n", "format", "bytes", "words/nnz")
	var csfFragName string
	for _, kind := range sparseart.Kinds() {
		st, err := sparseart.CreateStoreOn(fs, "stencil/"+kind.String(), kind, shape)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := st.Write(coords, vals)
		if err != nil {
			log.Fatal(err)
		}
		// Index words per point, from the fragment payload. (This
		// dips below the public facade into the library internals —
		// it is a diagnostic, not part of the storage API.)
		data, err := fs.ReadFile(rep.Name)
		if err != nil {
			log.Fatal(err)
		}
		frag, err := fragment.Decode(data)
		if err != nil {
			log.Fatal(err)
		}
		format, err := core.Get(kind)
		if err != nil {
			log.Fatal(err)
		}
		reader, err := format.Open(frag.Payload, shape)
		if err != nil {
			log.Fatal(err)
		}
		words := "-"
		if sz, ok := reader.(core.PayloadSizer); ok {
			words = fmt.Sprintf("%.3f", float64(sz.IndexWords())/float64(coords.Len()))
		}
		fmt.Printf("%-10v  %10d  %14s\n", kind, st.TotalBytes(), words)
		if kind == sparseart.CSF {
			csfFragName = rep.Name
		}
	}

	// Dissect the CSF tree: the banded matrix shares row prefixes
	// heavily, so the root level is tiny relative to the leaves.
	data, err := fs.ReadFile(csfFragName)
	if err != nil {
		log.Fatal(err)
	}
	frag, err := fragment.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	reader, err := csf.New().Open(frag.Payload, shape)
	if err != nil {
		log.Fatal(err)
	}
	tree := reader.(csf.Tree)
	fmt.Printf("\nCSF tree of the stencil matrix (dims sorted ascending %v):\n", tree.DimOrder())
	for lvl, n := range tree.NFibs() {
		fmt.Printf("  level %d: %6d nodes (%.2fx the points)\n",
			lvl, n, float64(n)/float64(coords.Len()))
	}
	fmt.Println("\nEvery non-leaf level deduplicates the repeated row coordinate of")
	fmt.Println("the band — the best-case end of the paper's O(n+d)..O(n*d) range.")

	// Finally, actually *use* the stored operator: solve the Poisson
	// problem A·u = f by conjugate gradients, with SpMV running
	// through the GCSR++ reader (the HPCG-style workload the paper
	// cites as a TSP source).
	matrix, err := sparseart.NewSparseMatrix(sparseart.GCSR, shape, coords, vals)
	if err != nil {
		log.Fatal(err)
	}
	f := make([]float64, shape[0])
	for i := range f {
		f[i] = 1 // uniform source term
	}
	res, err := sparseart.CG(matrix.SpMV, f, 4000, 1e-8)
	if err != nil {
		log.Fatal(err)
	}
	center := grid*grid/2 + grid/2
	fmt.Printf("\nCG solve of the Poisson problem through the GCSR++ reader:\n")
	fmt.Printf("  converged=%v after %d iterations (residual %.2e)\n",
		res.Converged, res.Iterations, res.Residual)
	fmt.Printf("  u(center) = %.4f\n", res.X[center])
}
