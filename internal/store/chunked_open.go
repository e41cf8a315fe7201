package store

import (
	"fmt"
	"strings"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// Chunked-store persistence: NewChunked records the tiling parameters
// (kind, shape, tile extents) in one small CHUNKED manifest, and
// OpenChunked restores the store from it — discovering the
// materialized tiles by listing the prefix and opening each tile's own
// Store manifest. This is what lets a shard process host a chunked
// store across restarts (cmd/sparsestore serve).

const (
	chunkedManifestName  = "CHUNKED"
	chunkedManifestMagic = uint32(0x53434b31) // "SCK1"
)

// chunkedManifestPath returns the manifest's name under the prefix.
func chunkedManifestPath(prefix string) string {
	return prefix + "/" + chunkedManifestName
}

// writeChunkedManifest persists the tiling parameters.
func (c *Chunked) writeChunkedManifest() error {
	w := buf.GetWriter(64)
	defer buf.PutWriter(w)
	w.U32(chunkedManifestMagic)
	w.U8(uint8(c.kind))
	w.U16(uint16(c.tiling.Shape.Dims()))
	w.RawU64s(c.tiling.Shape)
	w.RawU64s(c.tiling.Tile)
	if err := c.fs.WriteFile(chunkedManifestPath(c.prefix), w.Bytes()); err != nil {
		return fmt.Errorf("store: write chunked manifest: %w", err)
	}
	return nil
}

// decodeChunkedManifest parses a CHUNKED manifest.
func decodeChunkedManifest(data []byte) (kind core.Kind, shape, tile tensor.Shape, err error) {
	r := buf.NewReader(data)
	if magic := r.U32(); magic != chunkedManifestMagic {
		return 0, nil, nil, fmt.Errorf("store: bad chunked manifest magic %#x", magic)
	}
	kind = core.Kind(r.U8())
	dims := uint64(r.U16())
	shape = tensor.Shape(r.RawU64s(dims))
	tile = tensor.Shape(r.RawU64s(dims))
	if err := r.Err(); err != nil {
		return 0, nil, nil, fmt.Errorf("store: chunked manifest: %w", err)
	}
	return kind, shape, tile, nil
}

// OpenChunked reopens a chunked store created by NewChunked: the
// tiling parameters come from the CHUNKED manifest, and every tile
// directory found under the prefix is opened through the tile Store's
// own manifest/log recovery. Options are forwarded to the tiles the
// way NewChunked forwards them.
func OpenChunked(fs fsim.FS, prefix string, opts ...Option) (*Chunked, error) {
	data, err := fs.ReadFile(chunkedManifestPath(prefix))
	if err != nil {
		return nil, fmt.Errorf("store: open chunked %s: %w", prefix, err)
	}
	kind, shape, tile, err := decodeChunkedManifest(data)
	if err != nil {
		return nil, err
	}
	c, err := newChunkedShell(fs, prefix, kind, shape, tile, opts)
	if err != nil {
		return nil, err
	}
	var tiles []*tileEntry
	for _, name := range listTileDirs(fs, prefix) {
		idx, ok := c.tiling.ParseName(name)
		if !ok {
			continue
		}
		e := &tileEntry{name: name, idx: idx}
		if err := c.tileStore(e, false); err != nil {
			return nil, fmt.Errorf("store: open tile %s: %w", name, err)
		}
		tiles = append(tiles, e)
	}
	c.publish(c.dir.Load().with(tiles))
	return c, nil
}

// listTileDirs lists the directory names under prefix, in sorted
// order; the caller keeps the ones that parse as tile names. fs.List
// walks recursively, so tile payloads surface their directory.
func listTileDirs(fs fsim.FS, prefix string) []string {
	names, err := fs.List(prefix + "/")
	if err != nil {
		return nil
	}
	var dirs []string
	for _, name := range names {
		rest := strings.TrimPrefix(name, prefix+"/")
		slash := strings.IndexByte(rest, '/')
		if slash < 0 {
			continue // a file directly under the prefix, not a directory
		}
		// names are sorted, so one directory's files are adjacent
		if dir := rest[:slash]; len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
	}
	return dirs
}
