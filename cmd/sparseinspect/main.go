// Command sparseinspect dumps the metadata of fragment files and store
// manifests written by the storage engine: organization kind, shape,
// point count, bounding box, section sizes, per-fragment coordinate
// filters (and, in a manifest, key-filter sizes), and — with -payload —
// the organization-specific index structure (CSR pointers, CSF level
// sizes, and so on). Manifest files
// are detected by magic, so both file kinds can be mixed in one
// invocation. A manifest's legacy index section is skipped unread.
//
// Usage:
//
//	sparseinspect /path/to/store/tensor/frag-000000
//	sparseinspect -payload /path/to/store/tensor/frag-000003
//	sparseinspect /path/to/store/tensor/MANIFEST
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/core/csf"
	"sparseart/internal/filter"
	"sparseart/internal/fragment"
	"sparseart/internal/store"
)

func main() {
	payload := flag.Bool("payload", false, "also decode and summarize the index payload")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: sparseinspect [-payload] fragment-file...")
		os.Exit(2)
	}
	status := 0
	for _, path := range flag.Args() {
		if err := inspect(path, *payload); err != nil {
			fmt.Fprintf(os.Stderr, "sparseinspect: %s: %v\n", path, err)
			status = 1
		}
	}
	os.Exit(status)
}

func inspect(path string, payload bool) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	info, err := file.Stat()
	if err != nil {
		return err
	}
	// Dispatch on magic: a store checkpoint gets the manifest dump.
	var head [4]byte
	if n, _ := file.ReadAt(head[:], 0); n == 4 && store.IsManifest(head[:]) {
		data, err := io.ReadAll(io.NewSectionReader(file, 0, info.Size()))
		if err != nil {
			return err
		}
		return inspectManifest(path, data)
	}
	// Ranged open: this reads only the header; the body sections are
	// fetched (and checksummed) by Materialize below.
	lz, err := fragment.OpenAt(file, info.Size())
	if err != nil {
		return err
	}
	frag, err := lz.Materialize()
	if err != nil {
		return err
	}
	fmt.Printf("%s:\n", path)
	fmt.Printf("  layout:       v%d (sectioned, ranged reads)\n", frag.Version)
	for _, s := range lz.Sections() {
		fmt.Printf("    %-8s off=%-8d len=%-8d crc32=%08x\n", s.Name, s.Offset, s.Len, s.CRC)
	}
	fmt.Printf("  organization: %v\n", frag.Kind)
	fmt.Printf("  codec:        %d\n", frag.Codec)
	if frag.Tombstone {
		fmt.Printf("  tombstone:    deletes %v .. %v\n", frag.BBox.Min, frag.BBox.Max)
	}
	fmt.Printf("  shape:        %v\n", frag.Shape)
	fmt.Printf("  points:       %d\n", frag.NNZ)
	if frag.NNZ > 0 {
		fmt.Printf("  bbox:         %v .. %v\n", frag.BBox.Min, frag.BBox.Max)
	}
	fmt.Printf("  total bytes:  %d (payload %d stored, %d decoded; values %d)\n",
		frag.Bytes, frag.Stored.Payload, len(frag.Payload), frag.Stored.Values)
	if frag.Filter != nil {
		fmt.Printf("  filter:       %d bytes\n", frag.Stored.Filter)
		printFilterStats("    ", frag.Filter.Stats())
	}
	if !payload {
		return nil
	}
	f, err := core.Get(frag.Kind)
	if err != nil {
		return err
	}
	reader, err := f.Open(frag.Payload, frag.Shape)
	if err != nil {
		return err
	}
	if sz, ok := reader.(core.PayloadSizer); ok {
		fmt.Printf("  index words:  %d (%.2f per point)\n", sz.IndexWords(),
			float64(sz.IndexWords())/float64(max(int(frag.NNZ), 1)))
	}
	if tree, ok := reader.(csf.Tree); ok {
		fmt.Printf("  CSF levels:   nfibs=%v dims=%v\n", tree.NFibs(), tree.DimOrder())
	}
	return nil
}

// inspectManifest dumps a store checkpoint: properties and the fragment
// roster with per-fragment filter summaries.
func inspectManifest(path string, data []byte) error {
	info, err := store.DecodeManifestInfo(data)
	if err != nil {
		return err
	}
	fmt.Printf("%s:\n", path)
	fmt.Printf("  manifest:     %s\n", info.Format)
	fmt.Printf("  organization: %v\n", info.Kind)
	fmt.Printf("  codec:        %d\n", info.Codec)
	fmt.Printf("  shape:        %v\n", info.Shape)
	fmt.Printf("  next id:      %d\n", info.NextID)
	fmt.Printf("  fragments:    %d\n", len(info.Fragments))
	for _, fr := range info.Fragments {
		role := "data"
		if fr.Tombstone {
			role = "tomb"
		}
		fmt.Printf("    %-16s %-4s nnz=%-8d bytes=%-8d bbox=%v..%v\n",
			fr.Name, role, fr.NNZ, fr.Bytes, fr.BBox.Min, fr.BBox.Max)
		if fr.Filter != nil {
			fmt.Printf("      filter:     %d bytes\n", fr.FilterBytes)
			printFilterStats("      ", fr.Filter)
		}
		if fr.KeyBytes > 0 {
			fmt.Printf("      keys:       %d bytes\n", fr.KeyBytes)
		}
	}
	return nil
}

// printFilterStats writes one line per dimension of a coordinate
// filter: representation kind, bit width, and fill ratio.
func printFilterStats(indent string, stats []filter.DimStats) {
	for d, st := range stats {
		fill := 0.0
		if st.Bits > 0 {
			fill = float64(st.Set) / float64(st.Bits)
		}
		fmt.Printf("%sdim %d: %-6s bits=%-6d set=%-6d fill=%.3f\n",
			indent, d, st.Kind, st.Bits, st.Set, fill)
	}
}
