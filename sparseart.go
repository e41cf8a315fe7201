// Package sparseart is a from-scratch Go implementation of the systems
// studied in "The Art of Sparsity: Mastering High-Dimensional Tensor
// Storage" (Dong, Wu, Byna; IPPS 2024): the five sparse-tensor storage
// organizations — COO, LINEAR, GCSR++, GCSC++, and CSF — a TileDB-like
// fragment storage engine implementing the paper's Algorithm 3, a
// simulated Lustre file system calibrated to the paper's measurements,
// the three synthetic sparsity patterns of its evaluation, the Table I
// complexity model, and the organization advisor the paper names as
// future work.
//
// This package is the public facade; the machinery lives under
// internal/. Typical use:
//
//	shape := sparseart.Shape{64, 64, 64}
//	st, err := sparseart.CreateStore("/tmp/tensor", sparseart.CSF, shape)
//	...
//	st.Write(coords, values)
//	res, rep, err := st.Query(ctx, sparseart.QueryRequest{Region: &region, AsOf: sparseart.AsOfLatest})
//
// See the runnable programs under examples/ and the benchmark harness
// in cmd/sparsebench, which regenerates every table and figure of the
// paper's evaluation.
package sparseart

import (
	"context"

	"sparseart/internal/advisor"
	"sparseart/internal/compress"
	"sparseart/internal/core"
	_ "sparseart/internal/core/all" // register all storage organizations
	"sparseart/internal/fsim"
	"sparseart/internal/gen"
	"sparseart/internal/linalg"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// Core coordinate and shape types.
type (
	// Shape is the extent of a tensor in each dimension.
	Shape = tensor.Shape
	// Coords is a flat buffer of points, the b_coor of the paper's
	// algorithms.
	Coords = tensor.Coords
	// Region is a rectangular query window.
	Region = tensor.Region
	// BBox is an inclusive bounding box.
	BBox = tensor.BBox
	// Linearizer converts between coordinates and linear addresses.
	Linearizer = tensor.Linearizer
)

// Kind identifies a storage organization.
type Kind = core.Kind

// The storage organizations of the paper, plus the sorted-COO variant
// its §II-A discusses.
const (
	COO       = core.COO
	COOSorted = core.COOSorted
	LINEAR    = core.Linear
	GCSR      = core.GCSR
	GCSC      = core.GCSC
	CSF       = core.CSF
	// BCOO is the HiCOO-style blocked-COO extension.
	BCOO = core.BCOO
)

// Kinds returns the paper's five organizations in table order.
func Kinds() []Kind { return core.PaperKinds() }

// ParseKind resolves an organization name.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// Storage engine types (Algorithm 3).
type (
	// Store is a single-tensor fragment store.
	Store = store.Store
	// ChunkedStore tiles tensors whose linear addresses would
	// overflow uint64.
	ChunkedStore = store.Chunked
	// WriteReport is the Table III-style write breakdown.
	WriteReport = store.WriteReport
	// ReadReport is the read-phase breakdown.
	ReadReport = store.ReadReport
	// Result is a read result sorted by linear address.
	Result = store.Result
	// StoreOption configures store creation.
	StoreOption = store.Option
	// CompactReport summarizes a fragment consolidation.
	CompactReport = store.CompactReport
	// Batch is one fragment's worth of input to the batched ingest: the
	// arguments of one Write, ingested through the parallel pipeline.
	Batch = store.Batch
	// PushReport summarizes a push-down execution in the accounting of
	// the read it ran: fragments scanned, candidates the coordinate
	// filters skipped, live cells delivered, and stored cells a later
	// write overwrote (Shadowed) or a later tombstone covers (Dead).
	// Returned in every KernelResult (Store.Kernel) and by
	// Store.ScanLive.
	PushReport = store.PushReport
	// ConvertConfig tunes a streaming conversion's chunking and worker
	// pool.
	ConvertConfig = store.ConvertConfig
	// ConvertReport summarizes a streaming conversion: points and chunks
	// streamed, and the peak in-memory chunk footprint on the
	// destination side.
	ConvertReport = store.ConvertReport
)

// Batched ingest is the primary write surface. Store and ChunkedStore
// both take it in one form, with one report per batch:
//
//	reps, err := st.WriteBatchContext(ctx, batches, workers)
//
// WriteBatch(batches, workers) is the same call without a context. It
// leaves the file system byte-identical to a serial loop of Write;
// ChunkedStore additionally fans one logical batch list out across
// every tile it touches, preparing all tiles' fragments on one shared
// worker pool, and folds each batch's tile fragments into the batch's
// one report. On error no reports come back; the committed prefix
// stays durable.

// Option misuse (a compaction threshold below 2) surfaces from the
// constructors as a typed error matching ErrBadOption.
var ErrBadOption = store.ErrBadOption

// OptionError reports which store option was misused and why.
type OptionError = store.OptionError

// WithBackgroundCompaction makes the store compact itself on a
// background worker once a mutation leaves at least minFragments
// fragments behind (minFragments >= 2). Reads are never blocked: they
// serve from MVCC snapshots while the worker consolidates, and the swap
// is atomic. Store.Compact runs one such pass on demand.
func WithBackgroundCompaction(minFragments int) StoreOption {
	return store.WithBackgroundCompaction(minFragments)
}

// ConvertStore writes a store's full logical contents into a new store
// under another organization or codec. A store's organization is fixed
// at creation; this is the one way to change it. The contents stream
// through bounded chunks (never an exported tensor): cfg caps the points
// per destination fragment and the ingest worker pool (zero values mean
// the defaults), and the report says how many points and chunks
// streamed and the peak chunk footprint. ctx cancels the conversion;
// on any error the destination is closed, its committed prefix
// reopenable.
func ConvertStore(ctx context.Context, src *Store, fs FS, prefix string, kind Kind, cfg ConvertConfig, opts ...StoreOption) (*Store, *ConvertReport, error) {
	return store.Convert(ctx, src, fs, prefix, kind, cfg, opts...)
}

// File-system backends.
type (
	// FS is the file-system surface under the fragment store.
	FS = fsim.FS
	// SimFS is the simulated Lustre backend.
	SimFS = fsim.SimFS
	// OSFS is the real-file backend.
	OSFS = fsim.OSFS
	// CostModel parameterizes SimFS.
	CostModel = fsim.CostModel
)

// CodecID selects a fragment payload compression codec.
type CodecID = compress.ID

// Fragment payload codecs (the orthogonal compression layer of §II).
const (
	CodecNone        = compress.None
	CodecDeltaVarint = compress.DeltaVarint
	CodecRLE         = compress.RLE
)

// WithCodec compresses fragment payloads with the given codec.
func WithCodec(id CodecID) StoreOption { return store.WithCodec(id) }

// WithManifestCheckpointEvery folds the store's manifest delta log into
// a fresh checkpoint every k fragment commits (1 = rewrite the manifest
// on every write; k <= 0 = the adaptive amortized-O(1) default).
func WithManifestCheckpointEvery(k int) StoreOption {
	return store.WithManifestCheckpointEvery(k)
}

// NewCoords returns an empty coordinate buffer.
func NewCoords(dims, capHint int) *Coords { return tensor.NewCoords(dims, capHint) }

// NewRegion validates and builds a query region inside shape.
func NewRegion(shape Shape, start, size []uint64) (Region, error) {
	return tensor.NewRegion(shape, start, size)
}

// NewLinearizer builds a row-major linearizer for shape.
func NewLinearizer(shape Shape) (*Linearizer, error) {
	return tensor.NewLinearizer(shape, tensor.RowMajor)
}

// Normalize sorts a dataset by linear address and removes duplicate
// cells (the last occurrence wins) — the canonical form for one
// fragment.
func Normalize(c *Coords, vals []float64, shape Shape) (*Coords, []float64, error) {
	return tensor.Normalize(c, vals, shape)
}

// NewPerlmutterSim returns the simulated Lustre backend calibrated
// against the paper's Table III.
func NewPerlmutterSim() *SimFS { return fsim.NewPerlmutterSim() }

// NewSimFS returns a simulated file system with a custom cost model.
func NewSimFS(model CostModel) (*SimFS, error) { return fsim.NewSimFS(model) }

// NewOSFS returns a real-file backend rooted at dir.
func NewOSFS(dir string) (*OSFS, error) { return fsim.NewOSFS(dir) }

// CreateStore creates a store holding one sparse tensor in the given
// organization, backed by real files under dir.
func CreateStore(dir string, kind Kind, shape Shape, opts ...StoreOption) (*Store, error) {
	fs, err := fsim.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return store.Create(fs, "tensor", kind, shape, opts...)
}

// OpenStore opens a store previously created with CreateStore.
func OpenStore(dir string) (*Store, error) {
	fs, err := fsim.NewOSFS(dir)
	if err != nil {
		return nil, err
	}
	return store.Open(fs, "tensor")
}

// CreateStoreOn creates a store on an explicit backend (e.g. a SimFS).
func CreateStoreOn(fs FS, prefix string, kind Kind, shape Shape, opts ...StoreOption) (*Store, error) {
	return store.Create(fs, prefix, kind, shape, opts...)
}

// OpenStoreOn opens a store on an explicit backend.
func OpenStoreOn(fs FS, prefix string) (*Store, error) {
	return store.Open(fs, prefix)
}

// CreateChunkedStore creates a tiled store for tensors beyond uint64
// linear addressing, the paper's block-decomposition remedy (§II-B).
func CreateChunkedStore(fs FS, prefix string, kind Kind, shape, tile Shape, opts ...StoreOption) (*ChunkedStore, error) {
	return store.NewChunked(fs, prefix, kind, shape, tile, opts...)
}

// Synthetic patterns of the paper's evaluation.
type (
	// Pattern identifies a sparsity pattern (TSP, GSP, MSP).
	Pattern = gen.Pattern
	// GenConfig parameterizes a synthetic dataset.
	GenConfig = gen.Config
	// Dataset is a generated sparse tensor.
	Dataset = gen.Dataset
	// Scale selects benchmark problem sizes.
	Scale = gen.Scale
)

// The three sparsity patterns.
const (
	TSP = gen.TSP
	GSP = gen.GSP
	MSP = gen.MSP
)

// Benchmark scales.
const (
	ScaleSmall  = gen.Small
	ScaleMedium = gen.Medium
	ScalePaper  = gen.Paper
)

// Generate produces a synthetic dataset.
func Generate(cfg GenConfig) (*Dataset, error) { return gen.Generate(cfg) }

// TableIIConfig returns the generator configuration for one cell of the
// paper's Table II, calibrated to its reported density.
func TableIIConfig(p Pattern, dims int, scale Scale, seed uint64) (GenConfig, error) {
	return gen.TableIIConfig(p, dims, scale, seed)
}

// ReadRegionFor returns the paper's read-benchmark window (start m/2,
// size m/10 per dimension).
func ReadRegionFor(shape Shape) (Region, error) { return gen.ReadRegionFor(shape) }

// ValueAt is the deterministic value generators assign to a point.
func ValueAt(p []uint64) float64 { return gen.ValueAt(p) }

// Organization advisor (the paper's future work).
type (
	// Profile is a measured sparsity characterization.
	Profile = advisor.Profile
	// Weights expresses workload priorities.
	Weights = advisor.Weights
	// Recommendation ranks organizations for a profile.
	Recommendation = advisor.Recommendation
)

// Characterize measures the sparsity characteristics of a sample.
func Characterize(c *Coords, shape Shape) (Profile, error) {
	return advisor.Characterize(c, shape)
}

// BalancedWeights weighs write, read, and space equally.
func BalancedWeights() Weights { return advisor.Balanced() }

// Recommend ranks organizations for a profile under workload weights;
// readFraction is the expected ratio of probed to stored points.
func Recommend(p Profile, w Weights, readFraction float64) (Recommendation, error) {
	return advisor.Recommend(p, w, readFraction)
}

// Sparse kernels over packaged tensors (internal/linalg): the
// downstream computations the paper motivates sparse storage with.
type (
	// SparseMatrix runs SpMV/SpMVᵀ over a packaged 2D tensor.
	SparseMatrix = linalg.Matrix
	// SparseTensor runs TTV and MTTKRP over a packaged tensor.
	SparseTensor = linalg.Tensor
	// DenseMatrix is a small dense factor matrix for MTTKRP.
	DenseMatrix = linalg.Dense
	// CGResult reports a conjugate-gradient solve.
	CGResult = linalg.CGResult
	// CPALSOptions tunes a CP decomposition.
	CPALSOptions = linalg.CPALSOptions
	// CPResult holds a CP decomposition of a 3-way tensor.
	CPResult = linalg.CPResult
)

// NewSparseMatrix packages a coordinate-form matrix in the given
// organization for the linear-algebra kernels.
func NewSparseMatrix(kind Kind, shape Shape, c *Coords, values []float64) (*SparseMatrix, error) {
	return linalg.MatrixFrom(kind, shape, c, values)
}

// NewSparseTensor packages a coordinate-form tensor in the given
// organization for the tensor kernels.
func NewSparseTensor(kind Kind, shape Shape, c *Coords, values []float64) (*SparseTensor, error) {
	return linalg.TensorFrom(kind, shape, c, values)
}

// NewDenseMatrix allocates a zeroed dense factor matrix.
func NewDenseMatrix(rows, cols int) *DenseMatrix { return linalg.NewDense(rows, cols) }

// CG solves A·x = b by conjugate gradients for a symmetric
// positive-definite operator given as a matrix-vector product.
func CG(apply func(x []float64) ([]float64, error), b []float64, maxIter int, tol float64) (*CGResult, error) {
	return linalg.CG(apply, b, maxIter, tol)
}
