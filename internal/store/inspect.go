package store

import (
	"encoding/binary"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/filter"
	"sparseart/internal/tensor"
)

// Read-only manifest inspection for tooling (cmd/sparseinspect): the
// checkpoint's persisted properties, fragment roster, per-fragment
// coordinate-filter summaries, and the spatial-index section — decoded
// without constructing a Store, touching the log, or the fragments.

// ManifestFragmentInfo summarizes one checkpoint fragment entry.
type ManifestFragmentInfo struct {
	Name      string
	NNZ       uint64
	Bytes     int64
	Tombstone bool
	BBox      tensor.BBox
	// Filter holds the fragment's coordinate-filter summary, one entry
	// per dimension; nil when the fragment carries no filter (empty
	// fragments, tombstones).
	Filter []filter.DimStats
	// FilterBytes is the encoded filter's size in the manifest.
	FilterBytes int
}

// ManifestIndexInfo summarizes the checkpoint's spatial-index section.
type ManifestIndexInfo struct {
	GridCells []int    // cells per indexed dimension
	CellWidth []uint64 // coordinate width of one cell per dimension
	Buckets   int      // total grid buckets
	Filled    int      // buckets holding at least one fragment
	Entries   int      // total (bucket, fragment) pairs
	Overflow  int      // fragments on the overflow list
	Covered   int      // fragments the index covers
	// Err is why the section was rejected ("" when valid). A rejected
	// section is not fatal to Open — the index is rebuilt — but tooling
	// should surface it.
	Err string
}

// ManifestInfo is a decoded store checkpoint.
type ManifestInfo struct {
	Kind      core.Kind
	Codec     compress.ID
	Shape     tensor.Shape
	NextID    uint64
	Fragments []ManifestFragmentInfo
	// Index is nil when the checkpoint carries no index section.
	Index *ManifestIndexInfo
}

// IsManifest reports whether data starts with a store-checkpoint magic
// ("SMN" and a version byte — DecodeManifestInfo then rejects any
// version but the current one by name). Tooling uses it to dispatch
// between fragment and manifest inspection.
func IsManifest(data []byte) bool {
	return len(data) >= 4 && isManifestMagic(binary.LittleEndian.Uint32(data))
}

// DecodeManifestInfo parses raw checkpoint bytes (the MANIFEST file).
func DecodeManifestInfo(data []byte) (*ManifestInfo, error) {
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	info := &ManifestInfo{
		Kind:   m.kind,
		Codec:  m.codec,
		Shape:  m.shape,
		NextID: m.nextID,
	}
	info.Fragments = make([]ManifestFragmentInfo, 0, len(m.frags))
	for _, fr := range m.frags {
		fi := ManifestFragmentInfo{
			Name:      fr.name,
			NNZ:       fr.nnz,
			Bytes:     fr.bytes,
			Tombstone: fr.tomb,
			BBox:      fr.bbox,
		}
		if fr.filter != nil {
			fi.Filter = fr.filter.Stats()
			fi.FilterBytes = fr.filter.EncodedSize()
		}
		info.Fragments = append(info.Fragments, fi)
	}
	switch {
	case m.index != nil:
		buckets, filled, entries, overflow := m.index.stats()
		info.Index = &ManifestIndexInfo{
			GridCells: m.index.ncell,
			CellWidth: m.index.cellW,
			Buckets:   buckets,
			Filled:    filled,
			Entries:   entries,
			Overflow:  overflow,
			Covered:   m.index.n,
		}
	case m.indexErr != nil:
		info.Index = &ManifestIndexInfo{Err: m.indexErr.Error()}
	}
	return info, nil
}
