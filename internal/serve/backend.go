// Package serve turns a store into a network data server: a Server
// speaks the internal/wire protocol over any net.Listener, a Client
// drives it with pipelined, deadline-carrying requests, and a Router
// consistent-hashes tile coordinates across shard servers while
// presenting the same Backend surface — so a router can itself be
// served, and clients cannot tell one process from a fleet.
package serve

import (
	"context"
	"fmt"

	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// Backend is what a Server serves: the unified context-aware request
// surface of internal/store, plus identity (Info) and telemetry
// (ObsSnapshot). Store, Chunked, and Router all satisfy it through the
// adapters below.
type Backend interface {
	Info(ctx context.Context) (*wire.Info, error)
	Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error)
	WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error)
	DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error)
	Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error)
	// ObsSnapshot returns the backend's telemetry snapshot as obs
	// snapshot JSON (obs.DecodeSnapshot inverts it).
	ObsSnapshot(ctx context.Context) ([]byte, error)
}

// storeBackend adapts a flat *store.Store.
type storeBackend struct{ s *store.Store }

// StoreBackend serves a flat (untiled) store.
func StoreBackend(s *store.Store) Backend { return storeBackend{s} }

func (b storeBackend) Info(context.Context) (*wire.Info, error) {
	return &wire.Info{
		Kind:      b.s.Kind(),
		Shape:     b.s.Shape(),
		Fragments: uint64(b.s.Fragments()),
		Epoch:     b.s.Epoch(),
	}, nil
}

func (b storeBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	return b.s.Query(ctx, req)
}

func (b storeBackend) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	return b.s.WriteBatchContext(ctx, batches, workers)
}

func (b storeBackend) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.s.DeleteRegion(region)
}

func (b storeBackend) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	return b.s.Kernel(ctx, req)
}

func (b storeBackend) ObsSnapshot(context.Context) ([]byte, error) {
	return b.s.Obs().Snapshot().JSON()
}

// chunkedBackend adapts a tiled *store.Chunked — the shard-side
// backend.
type chunkedBackend struct{ c *store.Chunked }

// ChunkedBackend serves a chunked (tiled) store.
func ChunkedBackend(c *store.Chunked) Backend { return chunkedBackend{c} }

func (b chunkedBackend) Info(context.Context) (*wire.Info, error) {
	return &wire.Info{
		Kind:      b.c.Kind(),
		Shape:     b.c.Shape(),
		Tile:      b.c.Tile(),
		Fragments: uint64(b.c.Fragments()),
		Epoch:     b.c.Epoch(),
		Tiles:     uint32(b.c.Tiles()),
	}, nil
}

func (b chunkedBackend) Query(ctx context.Context, req store.QueryRequest) (*store.Result, *store.ReadReport, error) {
	return b.c.Query(ctx, req)
}

func (b chunkedBackend) WriteBatch(ctx context.Context, batches []store.Batch, workers int) ([]*store.WriteReport, error) {
	return b.c.WriteBatchContext(ctx, batches, workers)
}

func (b chunkedBackend) DeleteRegion(ctx context.Context, region tensor.Region) (*store.WriteReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.c.DeleteRegion(region)
}

func (b chunkedBackend) Kernel(ctx context.Context, req store.KernelRequest) (*store.KernelResult, error) {
	return b.c.Kernel(ctx, req)
}

func (b chunkedBackend) ObsSnapshot(context.Context) ([]byte, error) {
	return b.c.Obs().Snapshot().JSON()
}

// errUnsupportedOp builds the ErrBadRequest wrap for ops a backend
// cannot serve.
func errUnsupportedOp(what string) error {
	return fmt.Errorf("serve: %w: %s", store.ErrBadRequest, what)
}
