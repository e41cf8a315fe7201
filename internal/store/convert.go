package store

import (
	"context"
	"fmt"

	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// Format conversion without an exported tensor: the source store's
// live cells come off one READ (ScanLive — a scan-plan read whose live
// cells go to a callback instead of a Result) into bounded chunks that
// the destination's batched ingest pipeline builds and commits in
// waves. The source side holds what any read of everything holds — the
// hits of its fragments until the merge has run, as ExportAll and
// compaction do; what stays bounded is the destination side, O(Workers
// × ChunkPoints), because no coordinate buffer of the whole tensor is
// built between the two.

// DefaultConvertChunk is the per-fragment point budget of a streaming
// conversion when the config leaves ChunkPoints unset.
const DefaultConvertChunk = 64 << 10

// ConvertConfig tunes a streaming conversion.
type ConvertConfig struct {
	// ChunkPoints caps the points per destination fragment; values < 1
	// mean DefaultConvertChunk.
	ChunkPoints int
	// Workers bounds the destination ingest pipeline's CPU stage and the
	// number of pending chunks buffered between flushes; values < 1 mean
	// all cores.
	Workers int
}

// ConvertReport summarizes a streaming conversion.
type ConvertReport struct {
	// Points is the number of live cells converted.
	Points int64
	// Chunks is the number of destination fragments written.
	Chunks int
	// PeakChunkBytes is the largest in-memory chunk (coordinates plus
	// values) the destination pipeline held — the knob-controlled peak
	// of the destination side only; the source read's hits are not
	// counted.
	PeakChunkBytes int64
	// SourceEpoch is the source snapshot the conversion read.
	SourceEpoch uint64
}

// Convert writes src's live contents into a new store at prefix under
// the given organization (or codec) — the one way to change a store's
// organization, which is otherwise fixed at Create. Live cells stream
// through bounded chunks instead of an exported tensor. Chunks are cut
// in ScanLive's order, ascending linear address, so they cover disjoint
// address ranges and the destination's bytes are a pure function of the
// source snapshot; its logical contents (ExportAll) equal the source's
// exactly. ctx bounds the source read and every destination wave. The
// destination is returned open; on any failure, cancellation included,
// it is closed before returning — its manifest log checkpointed and
// any background worker drained — so the committed prefix of whole
// chunks remains a valid, reopenable store.
func Convert(ctx context.Context, src *Store, fs fsim.FS, prefix string, kind core.Kind, cfg ConvertConfig, opts ...Option) (*Store, *ConvertReport, error) {
	chunk := cfg.ChunkPoints
	if chunk < 1 {
		chunk = DefaultConvertChunk
	}
	dst, err := Create(fs, prefix, kind, src.Shape(), opts...)
	if err != nil {
		return nil, nil, err
	}
	rep := &ConvertReport{}
	if err := src.convertInto(ctx, dst, chunk, cfg.Workers, rep); err != nil {
		if cerr := dst.Close(); cerr != nil {
			err = fmt.Errorf("%w (closing destination: %v)", err, cerr)
		}
		return nil, nil, err
	}
	reg := src.obsReg()
	kindLabel := src.kind.String()
	reg.Counter("store.convert.count", "kind", kindLabel, "to", kind.String()).Inc()
	reg.Counter("store.convert.points", "kind", kindLabel, "to", kind.String()).Add(rep.Points)
	reg.Counter("store.convert.chunks", "kind", kindLabel, "to", kind.String()).Add(int64(rep.Chunks))
	return dst, rep, nil
}

// convertInto streams src's live cells into dst in chunked waves: up
// to `workers` chunks accumulate, then flush through dst's batched
// ingest so the CPU stages of a wave's chunks overlap while the walk
// continues only after the wave is durable.
func (s *Store) convertInto(ctx context.Context, dst *Store, chunkPoints, workers int, rep *ConvertReport) error {
	dims := s.shape.Dims()
	waveSize := resolveIngestWorkers(workers, 1<<30)
	var wave []Batch

	flush := func() error {
		if len(wave) == 0 {
			return nil
		}
		if _, err := dst.WriteBatchContext(ctx, wave, workers); err != nil {
			return err
		}
		rep.Chunks += len(wave)
		wave = wave[:0]
		return nil
	}

	var cur Batch
	cut := func() error {
		if cur.Coords == nil || cur.Coords.Len() == 0 {
			return nil
		}
		if b := chunkBytes(&cur); b > rep.PeakChunkBytes {
			rep.PeakChunkBytes = b
		}
		wave = append(wave, cur)
		cur = Batch{}
		if len(wave) >= waveSize {
			return flush()
		}
		return nil
	}

	var walkErr error
	prep, err := s.ScanLive(ctx, nil, func(p []uint64, val float64) bool {
		if cur.Coords == nil {
			cur.Coords = tensor.NewCoords(dims, chunkPoints)
		}
		cur.Coords.Append(p...)
		cur.Values = append(cur.Values, val)
		rep.Points++
		if cur.Coords.Len() >= chunkPoints {
			if walkErr = cut(); walkErr != nil {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if walkErr != nil {
		return walkErr
	}
	rep.SourceEpoch = prep.Epoch
	if err := cut(); err != nil {
		return err
	}
	return flush()
}

// chunkBytes estimates one chunk's in-memory footprint: 8 bytes per
// coordinate word plus 8 per value.
func chunkBytes(b *Batch) int64 {
	return int64(8*len(b.Coords.Flat()) + 8*len(b.Values))
}
