package bench

import (
	"fmt"
	"strings"

	"sparseart/internal/core"
	"sparseart/internal/core/coretest"
	"sparseart/internal/core/csf"
	"sparseart/internal/tensor"
)

// RenderFig1 reproduces the paper's Fig. 1 — the worked example of every
// organization on the same 3x3x3 five-point tensor — by building each
// format and printing its actual structures. Where the printed paper
// figure disagrees with its own Algorithm 1 (see the gcs package
// tests), this output follows the algorithm.
func RenderFig1() (string, error) {
	shape, coords := coretest.PaperExample()
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: the organizations of a %v tensor with points", shape)
	for i := 0; i < coords.Len(); i++ {
		fmt.Fprintf(&b, " %v", coords.At(i))
	}
	b.WriteString("\n\n")

	lin, err := tensor.NewLinearizer(shape, tensor.RowMajor)
	if err != nil {
		return "", err
	}

	// (a) COO and LINEAR side by side.
	b.WriteString("(a) COO / LINEAR\n")
	t := &table{header: []string{"COO", "LINEAR", "Value"}}
	for i := 0; i < coords.Len(); i++ {
		p := coords.At(i)
		t.add(fmt.Sprintf("(%d, %d, %d)", p[0], p[1], p[2]),
			fmt.Sprintf("%d", lin.Linearize(p)),
			fmt.Sprintf("v%d", i+1))
	}
	b.WriteString(t.String())
	b.WriteString("\n")

	// (b)/(c) GCSR++ and GCSC++ pointer structures.
	type gcsReader interface {
		Geometry() (uint64, uint64)
		Ptr() []uint64
		Ind() []uint64
	}
	for _, spec := range []struct {
		label, title, ptr, ind string
		kind                   core.Kind
	}{
		{"(b)", "GCSR++", "row_ptr", "col_ind", core.GCSR},
		{"(c)", "GCSC++", "col_ptr", "row_ind", core.GCSC},
	} {
		format, err := core.Get(spec.kind)
		if err != nil {
			return "", err
		}
		built, err := format.Build(coords, shape)
		if err != nil {
			return "", err
		}
		r, err := format.Open(built.Payload, shape)
		if err != nil {
			return "", err
		}
		g, ok := r.(gcsReader)
		if !ok {
			return "", fmt.Errorf("bench: %v reader does not expose its structure", spec.kind)
		}
		rows, cols := g.Geometry()
		fmt.Fprintf(&b, "%s %s (2D remap %dx%d)\n", spec.label, spec.title, rows, cols)
		fmt.Fprintf(&b, "  %s: %s\n", spec.ptr, joinU64(g.Ptr()))
		fmt.Fprintf(&b, "  %s: %s\n\n", spec.ind, joinU64(g.Ind()))
	}

	// (d) The CSF tree.
	format, err := core.Get(core.CSF)
	if err != nil {
		return "", err
	}
	built, err := format.Build(coords, shape)
	if err != nil {
		return "", err
	}
	r, err := format.Open(built.Payload, shape)
	if err != nil {
		return "", err
	}
	tree, ok := r.(csf.Tree)
	if !ok {
		return "", fmt.Errorf("bench: CSF reader is not a tree")
	}
	b.WriteString("(d) CSF\n")
	fmt.Fprintf(&b, "  nfibs: %s\n", joinU64(tree.NFibs()))
	for lvl, fids := range tree.Fids() {
		fmt.Fprintf(&b, "  fids[%d]: %s\n", lvl, joinU64(fids))
	}
	for lvl, fptr := range tree.Fptr() {
		fmt.Fprintf(&b, "  fptr[%d]: %s\n", lvl, joinU64(fptr))
	}
	return b.String(), nil
}

func joinU64(v []uint64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return strings.Join(parts, ", ")
}
