// Command sparsestore administers on-disk tensor stores written by this
// library: inspect them, consolidate their fragments, convert them
// between storage organizations, and export or import their contents as
// dataset files.
//
// Usage:
//
//	sparsestore info    -dir /path/to/store
//	sparsestore compact -dir /path/to/store
//	sparsestore convert -dir /path/to/store -to CSF -out /path/to/new [-workers N] [-chunk P]
//	sparsestore export  -dir /path/to/store -o dump.txt
//	sparsestore import  -dir /path/to/new -kind GCSR++ -shape 64,64 -in dump.txt
//
// Import can split the dataset into several fragments and ingest them
// through the parallel batched pipeline (-fragments=N, or
// -fragments=auto to size the split from the dataset's measured
// profile), and can build a tiled chunked store (-tile=t1,t2,...),
// ingesting across all tiles at once with one shared reader-cache
// budget:
//
//	sparsestore import -dir /path/to/new -kind CSF -shape 4096,4096 \
//	    -tile 512,512 -fragments=auto -in dump.txt
//
// The global flags -cpuprofile=FILE and -memprofile=FILE, given before
// the subcommand, capture runtime/pprof profiles around it:
//
//	sparsestore -cpuprofile=cpu.out compact -dir /path/to/store
//
// The global flag -cache=BYTES|off sets the fragment-reader cache
// budget for every store the command opens (default: the library's
// default budget):
//
//	sparsestore -cache=off info -dir /path/to/store
//
// The global flag -checkpoint-every=K sets the manifest checkpoint
// cadence: every K fragment commits the delta log folds into a fresh
// MANIFEST (1 = rewrite on every write; default: the adaptive policy).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"sparseart/internal/advisor"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/dataio"
	"sparseart/internal/fsim"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// cacheFlag holds the global -cache=BYTES|off value; empty means the
// library default.
var cacheFlag string

// ckptFlag holds the global -checkpoint-every=K value; empty means the
// library default.
var ckptFlag string

// bgCompactFlag holds the global -bg-compact=N value: every store the
// command opens compacts itself in the background once N fragments
// accumulate (N >= 2). Empty keeps the library default: a chunked
// store's tiles compact at 64 fragments, a flat store never.
var bgCompactFlag string

// listenFlag holds the global -listen=ADDR value: when set, the
// process-wide obs registry is enabled and served over HTTP for the
// duration of the command, so a long compact or import can be watched
// live on /metrics (and profiled via /debug/pprof/).
var listenFlag string

func main() {
	args := os.Args[1:]
	var cpuProfile, memProfile string
	// Global flags precede the subcommand so they compose with any
	// subcommand's own flag set.
	for len(args) > 0 && strings.HasPrefix(args[0], "-") {
		arg := strings.TrimPrefix(strings.TrimPrefix(args[0], "-"), "-")
		if v, ok := strings.CutPrefix(arg, "cpuprofile="); ok {
			cpuProfile = v
		} else if v, ok := strings.CutPrefix(arg, "memprofile="); ok {
			memProfile = v
		} else if v, ok := strings.CutPrefix(arg, "cache="); ok {
			cacheFlag = v
		} else if v, ok := strings.CutPrefix(arg, "checkpoint-every="); ok {
			ckptFlag = v
		} else if v, ok := strings.CutPrefix(arg, "bg-compact="); ok {
			bgCompactFlag = v
		} else if v, ok := strings.CutPrefix(arg, "listen="); ok {
			listenFlag = v
		} else {
			break
		}
		args = args[1:]
	}
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := args[0], args[1:]
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sparsestore:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "sparsestore:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote CPU profile %s\n", cpuProfile)
		}()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sparsestore:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sparsestore:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote heap profile %s\n", memProfile)
		}()
	}
	if listenFlag != "" {
		stop, lerr := startListener(listenFlag)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "sparsestore:", lerr)
			os.Exit(1)
		}
		defer stop()
	}
	var err error
	switch cmd {
	case "info":
		err = runInfo(args)
	case "compact":
		err = runCompact(args)
	case "convert":
		err = runConvert(args)
	case "delete":
		err = runDelete(args)
	case "export":
		err = runExport(args)
	case "import":
		err = runImport(args)
	case "serve":
		err = runServe(args)
	case "rpc":
		err = runRPC(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "sparsestore: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sparsestore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: sparsestore [-cpuprofile=FILE] [-memprofile=FILE] <command> [flags]

global flags (before the command):
  -cpuprofile=FILE  capture a runtime/pprof CPU profile around the command
  -memprofile=FILE  write a heap profile after the command completes
  -cache=BYTES|off  fragment-reader cache budget for every store opened
  -checkpoint-every=K
                    fold the manifest delta log into a checkpoint every
                    K fragment commits (1 = rewrite per write)
  -bg-compact=N     compact in the background whenever a store opened by
                    the command accumulates N fragments (N >= 2;
                    default: a chunked store's tiles at 64, a flat
                    store never)
  -listen=ADDR      serve live telemetry (/metrics, /snapshot, /trace,
                    /debug/pprof/) on ADDR while the command runs

commands:
  info     print a store's organization, shape, and fragment inventory
  compact  consolidate all fragments into one (newest value wins,
           tombstones folded in) in the store's organization
  convert  stream the store into a new one under another organization,
           the one way to change it (-workers, -chunk bound the pipeline)
  delete   append a tombstone record over a region
  export   dump the logical contents as a dataset file
  import   create a store from a dataset file
  serve    open a store and serve its telemetry over HTTP until
           interrupted; -data-addr additionally serves reads, writes,
           deletes, and kernels over the wire protocol (-create KIND
           -shape S [-tile T] initializes a fresh store first)
  rpc      drive a remote data server or shard router: write a
           deterministic workload, read it back, verify, and exit
           non-zero on any disagreement`)
}

// openStore opens the store rooted at dir, flat or tiled (stores
// created by the library facade live under the "tensor" prefix),
// applying the global -cache flag.
func openStore(dir string) (*store.Store, error) {
	fs, err := fsim.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	opts, err := cacheOptions()
	if err != nil {
		return nil, err
	}
	return store.Open(fs, "tensor", opts...)
}

// createStore makes the store under the "tensor" prefix: tiled with
// tile extents tileSpec, flat when it is empty.
func createStore(fs fsim.FS, kind core.Kind, shape tensor.Shape, tileSpec string, opts []store.Option) (*store.Store, error) {
	if tileSpec == "" {
		return store.Create(fs, "tensor", kind, shape, opts...)
	}
	tile, err := parseShape(tileSpec)
	if err != nil {
		return nil, err
	}
	return store.NewChunked(fs, "tensor", kind, shape, tile, opts...)
}

// cacheOptions translates the global -cache and -checkpoint-every
// flags into store options.
func cacheOptions() ([]store.Option, error) {
	var opts []store.Option
	switch cacheFlag {
	case "":
	case "off":
		opts = append(opts, store.WithReaderCache(0))
	default:
		n, err := strconv.ParseInt(cacheFlag, 10, 64)
		if err != nil {
			return nil, fmt.Errorf(`bad -cache value %q (want a byte count or "off")`, cacheFlag)
		}
		opts = append(opts, store.WithReaderCache(n))
	}
	if ckptFlag != "" {
		k, err := strconv.Atoi(ckptFlag)
		if err != nil || k < 1 {
			return nil, fmt.Errorf("bad -checkpoint-every value %q (want a positive integer)", ckptFlag)
		}
		opts = append(opts, store.WithManifestCheckpointEvery(k))
	}
	if bgCompactFlag != "" {
		n, err := strconv.Atoi(bgCompactFlag)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -bg-compact value %q (want an integer >= 2)", bgCompactFlag)
		}
		opts = append(opts, store.WithBackgroundCompaction(n))
	}
	return opts, nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("info: -dir is required")
	}
	st, err := openStore(*dir)
	if err != nil {
		return err
	}
	coords, _, err := st.ExportAll()
	if err != nil {
		return err
	}
	stats := st.Stats()
	fmt.Printf("store:        %s\n", *dir)
	fmt.Printf("organization: %v\n", st.Kind())
	fmt.Printf("shape:        %v\n", st.Shape())
	fmt.Printf("tiles:        %d of extent %v\n", st.Tiles(), st.Tile())
	fmt.Printf("fragments:    %d (%d bytes, %d tombstones)\n",
		stats.Fragments, stats.Bytes, stats.Tombstones)
	fmt.Printf("written:      %d points across all fragments\n", stats.WrittenPoints)
	vol := 1.0 // in float64: a tiled shape's volume may overflow uint64
	for _, n := range st.Shape() {
		vol *= float64(n)
	}
	fmt.Printf("live cells:   %d (density %.4f%%)\n", coords.Len(),
		100*float64(coords.Len())/vol)
	return nil
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("compact: -dir is required")
	}
	st, err := openStore(*dir)
	if err != nil {
		return err
	}
	rep, err := st.Compact()
	if err != nil {
		return err
	}
	fmt.Printf("fragments: %d -> %d\n", rep.FragmentsBefore, rep.FragmentsAfter)
	fmt.Printf("points:    %d -> %d\n", rep.PointsBefore, rep.PointsAfter)
	fmt.Printf("bytes:     %d -> %d\n", rep.BytesBefore, rep.BytesAfter)
	return nil
}

func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	dir := fs.String("dir", "", "source store directory")
	out := fs.String("out", "", "destination store directory")
	to := fs.String("to", "", "destination organization (COO|LINEAR|GCSR++|GCSC++|CSF|COO-sorted)")
	workers := fs.Int("workers", 0, "ingest workers for the streaming pipeline (0 = all cores)")
	chunk := fs.Int("chunk", 0, "points per destination fragment (0 = the library default)")
	fs.Parse(args)
	if *dir == "" || *out == "" || *to == "" {
		return fmt.Errorf("convert: -dir, -out, and -to are required")
	}
	kind, err := core.ParseKind(*to)
	if err != nil {
		return err
	}
	src, err := openStore(*dir)
	if err != nil {
		return err
	}
	dstFS, err := fsim.NewOSFS(*out)
	if err != nil {
		return err
	}
	opts, err := cacheOptions()
	if err != nil {
		return err
	}
	dst, rep, err := store.Convert(context.Background(), src, dstFS, "tensor", kind,
		store.ConvertConfig{ChunkPoints: *chunk, Workers: *workers}, opts...)
	if err != nil {
		return err
	}
	if err := dst.Close(); err != nil {
		return err
	}
	fmt.Printf("converted %v (%d bytes) -> %v (%d bytes) at %s\n",
		src.Kind(), src.TotalBytes(), dst.Kind(), dst.TotalBytes(), *out)
	fmt.Printf("streamed %d points in %d chunks (peak chunk %d bytes)\n",
		rep.Points, rep.Chunks, rep.PeakChunkBytes)
	return nil
}

func runDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	startSpec := fs.String("start", "", "region start 'c1,c2,...'")
	sizeSpec := fs.String("size", "", "region size 'n1,n2,...'")
	fs.Parse(args)
	if *dir == "" || *startSpec == "" || *sizeSpec == "" {
		return fmt.Errorf("delete: -dir, -start, and -size are required")
	}
	start, err := parseU64List(*startSpec)
	if err != nil {
		return err
	}
	size, err := parseU64List(*sizeSpec)
	if err != nil {
		return err
	}
	st, err := openStore(*dir)
	if err != nil {
		return err
	}
	region, err := tensor.NewRegion(st.Shape(), start, size)
	if err != nil {
		return err
	}
	rep, err := st.DeleteRegion(region)
	if err != nil {
		return err
	}
	fmt.Printf("appended tombstone record over start=%v size=%v (%d bytes, epoch %d)\n",
		start, size, rep.Bytes, rep.Epoch)
	return nil
}

func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	out := fs.String("o", "", "output dataset file (default stdout)")
	format := fs.String("format", "text", "output format: text|binary|mtx (Matrix Market, 2D only)")
	binary := fs.Bool("binary", false, "alias for -format binary")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("export: -dir is required")
	}
	if *binary {
		*format = "binary"
	}
	st, err := openStore(*dir)
	if err != nil {
		return err
	}
	coords, vals, err := st.ExportAll()
	if err != nil {
		return err
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	t := &dataio.Tensor{Shape: st.Shape(), Coords: coords, Values: vals}
	switch *format {
	case "text":
		return dataio.WriteText(w, t)
	case "binary":
		return dataio.WriteBinary(w, t)
	case "mtx":
		return dataio.WriteMatrixMarket(w, t)
	}
	return fmt.Errorf("export: unknown format %q", *format)
}

func runImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory to create")
	in := fs.String("in", "", "input dataset file (default stdin)")
	kindName := fs.String("kind", "LINEAR", "storage organization")
	shapeSpec := fs.String("shape", "", "override tensor shape 'm1,m2,...' (default: the dataset's)")
	format := fs.String("format", "text", "input format: text|binary|mtx (Matrix Market, e.g. SuiteSparse)")
	binary := fs.Bool("binary", false, "alias for -format binary")
	dedup := fs.Bool("dedup", false, "normalize the dataset first: sort by linear address and drop duplicate cells (newest wins)")
	fragmentsSpec := fs.String("fragments", "1", "split the dataset into this many fragments for the batched write pipeline, or 'auto' to size the split from the dataset's profile")
	workers := fs.Int("workers", 0, "CPU workers for the batched pipeline when -fragments > 1 (0 = all cores)")
	tileSpec := fs.String("tile", "", "tile extents 't1,t2,...': create a chunked store and ingest across tiles (required for shapes beyond uint64 addressing)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("import: -dir is required")
	}
	if *binary {
		*format = "binary"
	}
	kind, err := core.ParseKind(*kindName)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var t *dataio.Tensor
	switch *format {
	case "text":
		t, err = dataio.ReadText(r)
	case "binary":
		t, err = dataio.ReadBinary(r)
	case "mtx":
		t, err = dataio.ReadMatrixMarket(r)
	default:
		return fmt.Errorf("import: unknown format %q", *format)
	}
	if err != nil {
		return err
	}
	shape := t.Shape
	if *shapeSpec != "" {
		shape, err = parseShape(*shapeSpec)
		if err != nil {
			return err
		}
	}
	if *dedup {
		t.Coords, t.Values, err = tensor.Normalize(t.Coords, t.Values, shape)
		if err != nil {
			return err
		}
	}
	fragments, err := resolveFragments(*fragmentsSpec, t.Coords, shape, *workers)
	if err != nil {
		return err
	}
	osfs, err := fsim.NewOSFS(*dir)
	if err != nil {
		return err
	}
	opts, err := cacheOptions()
	if err != nil {
		return err
	}
	// A tiled import's batches fan out across tiles through the
	// cross-tile ingest, and the -cache budget is one shared reader-cache
	// budget for the whole store.
	st, err := createStore(osfs, kind, shape, *tileSpec, opts)
	if err != nil {
		return err
	}
	reps, err := st.WriteBatch(splitBatches(t.Coords, t.Values, fragments), *workers)
	if err != nil {
		return err
	}
	var bytes int64
	for _, rep := range reps {
		bytes += rep.Bytes
	}
	if err := st.Close(); err != nil {
		return err
	}
	layout := ""
	if *tileSpec != "" {
		layout = "chunked "
	}
	fmt.Printf("imported %d points into %s%v store at %s (%d tiles, %d fragments, %d bytes)\n",
		t.Coords.Len(), layout, kind, *dir, st.Tiles(), st.Fragments(), bytes)
	return nil
}

// resolveFragments turns the -fragments flag into a concrete split:
// a positive integer verbatim, or "auto" to size the split from the
// dataset's measured profile via the advisor's heuristic.
func resolveFragments(spec string, coords *tensor.Coords, shape tensor.Shape, workers int) (int, error) {
	if spec == "auto" {
		profile, err := advisor.Characterize(coords, shape)
		if err != nil {
			return 0, fmt.Errorf("import: -fragments=auto: %w", err)
		}
		n := advisor.SuggestFragments(profile, workers)
		fmt.Fprintf(os.Stderr, "auto fragment split: %d fragments for %d points\n", n, coords.Len())
		return n, nil
	}
	n, err := strconv.Atoi(spec)
	if err != nil || n < 1 {
		return 0, fmt.Errorf(`import: bad -fragments value %q (want a positive integer or "auto")`, spec)
	}
	return n, nil
}

// splitBatches cuts a dataset into n contiguous fragment-sized batches
// for the ingest pipeline.
func splitBatches(coords *tensor.Coords, vals []float64, n int) []store.Batch {
	total := coords.Len()
	if n > total {
		n = total
	}
	batches := make([]store.Batch, 0, n)
	for w := 0; w < n; w++ {
		lo, hi := w*total/n, (w+1)*total/n
		if lo == hi {
			continue
		}
		c := tensor.NewCoords(coords.Dims(), hi-lo)
		for i := lo; i < hi; i++ {
			c.AppendFlat(coords.At(i))
		}
		batches = append(batches, store.Batch{Coords: c, Values: vals[lo:hi]})
	}
	return batches
}

func parseShape(spec string) (tensor.Shape, error) {
	vals, err := parseU64List(spec)
	if err != nil {
		return nil, err
	}
	shape := tensor.Shape(vals)
	return shape, shape.Validate()
}

func parseU64List(spec string) ([]uint64, error) {
	var out []uint64
	for _, f := range strings.Split(spec, ",") {
		m, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", f)
		}
		out = append(out, m)
	}
	return out, nil
}
