package sparseart

// This file is the facade over the request surface (store.Query /
// store.Kernel) and the network serving layer (internal/serve +
// internal/wire): one context-aware QueryRequest expresses every read,
// the same struct travels the wire protocol to a data server, and a
// shard router serves the identical surface over a fleet.

import (
	"sparseart/internal/obs"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/wire"
)

// Unified request surface. QueryRequest is what Store.Query,
// ChunkedStore.Query, DataClient.Query, and ShardRouter.Query all
// take — and exactly what the wire protocol serializes.
type (
	// QueryRequest describes one read: a probe list or a region, an
	// as-of version bound, an execution strategy, and a worker budget.
	QueryRequest = store.QueryRequest
	// QueryStrategy selects how a region query executes.
	QueryStrategy = store.Strategy
	// KernelRequest names an in-store push-down kernel and its
	// arguments.
	KernelRequest = store.KernelRequest
	// KernelResult is a kernel's output vector, shape, and push report.
	KernelResult = store.KernelResult
	// KernelOp identifies a push-down kernel (wire-stable values).
	KernelOp = store.KernelOp
)

// Query strategies and the as-of sentinel.
const (
	// StrategyDefault probes every region cell.
	StrategyDefault = store.StrategyDefault
	// StrategyScan enumerates fragment points and filters.
	StrategyScan = store.StrategyScan
	// StrategyAuto picks probe or scan per fragment (Table I model).
	StrategyAuto = store.StrategyAuto
	// AsOfLatest reads the store's current version.
	AsOfLatest = store.AsOfLatest
)

// Push-down kernel identifiers.
const (
	KernelSumAll      = store.KernelSumAll
	KernelSumRegion   = store.KernelSumRegion
	KernelLiveNNZ     = store.KernelLiveNNZ
	KernelNNZPerSlice = store.KernelNNZPerSlice
	KernelSpMV        = store.KernelSpMV
	KernelTTV         = store.KernelTTV
)

// Typed request errors. All four survive the wire protocol: a client
// errors.Is sees the same sentinel the server raised.
var (
	// ErrBadRequest marks a structurally malformed request.
	ErrBadRequest = store.ErrBadRequest
	// ErrShapeMismatch marks coordinates of the wrong dimensionality.
	ErrShapeMismatch = store.ErrShapeMismatch
	// ErrOverloaded is a data server's typed back-pressure rejection.
	ErrOverloaded = wire.ErrOverloaded
	// ErrShardUnavailable marks a router request that could not reach
	// the owning shard.
	ErrShardUnavailable = wire.ErrShardUnavailable
)

// AlignPoints lays a probe query's Result out along its probe: vals[i]
// and found[i] answer probe point i. It works on a Result from a
// Store, a ChunkedStore, a DataClient or a ShardRouter alike.
func AlignPoints(probe *Coords, res *Result) (vals []float64, found []bool) {
	return store.AlignPoints(probe, res)
}

// OpenChunkedStore reopens a chunked store created by
// CreateChunkedStore from its CHUNKED manifest, rediscovering every
// materialized tile.
func OpenChunkedStore(fs FS, prefix string, opts ...StoreOption) (*ChunkedStore, error) {
	return store.OpenChunked(fs, prefix, opts...)
}

// Serving layer: a DataServer exposes any Backend (a Store, a
// ChunkedStore, or a ShardRouter) over the length-prefixed wire
// protocol; a DataClient drives it with pipelined, deadline-carrying
// requests.
type (
	// Backend is the serveable surface: Query, WriteBatch, DeleteRegion,
	// Kernel, Info, ObsSnapshot.
	Backend = serve.Backend
	// DataServer serves one Backend over the wire protocol.
	DataServer = serve.Server
	// DataServerConfig tunes back-pressure and telemetry.
	DataServerConfig = serve.Config
	// DataClient is a pipelined wire-protocol client.
	DataClient = serve.Client
	// ShardRouter scatter-gathers requests across shard data servers
	// by consistent-hashing tile coordinates.
	ShardRouter = serve.Router
	// BackendInfo describes a served backend (kind, shape, tiling,
	// fragment and epoch totals).
	BackendInfo = wire.Info
)

// StoreBackend adapts a flat Store for serving.
func StoreBackend(s *Store) Backend { return serve.StoreBackend(s) }

// ChunkedBackend adapts a ChunkedStore for serving — the shard-side
// backend.
func ChunkedBackend(c *ChunkedStore) Backend { return serve.ChunkedBackend(c) }

// NewDataServer builds a wire-protocol server over backend. Serve it
// with DataServer.Serve or DataServer.ListenAndServe.
func NewDataServer(backend Backend, cfg DataServerConfig) *DataServer {
	return serve.NewServer(backend, cfg)
}

// DialData connects a DataClient to a data server (or router) address.
func DialData(addr string) (*DataClient, error) { return serve.Dial(addr) }

// NewShardRouter dials the shard data servers, verifies they agree on
// shape, tile, and kind, and returns a router that is itself a
// Backend. reg receives the router's metrics plus absorbed shard
// deltas; nil uses the process-global registry.
func NewShardRouter(addrs []string, reg *obs.Registry) (*ShardRouter, error) {
	return serve.NewRouter(addrs, reg)
}
