package store

import (
	"encoding/binary"
	"fmt"

	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/filter"
	"sparseart/internal/tensor"
)

// Read-only manifest inspection for tooling (cmd/sparseinspect): the
// checkpoint's persisted properties, fragment roster and per-fragment
// filter summaries — decoded without constructing a Store, touching the
// log, or the fragments.

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
	// KeyBytes is the encoded key filter's size in the manifest; 0 when
	// the fragment carries none (empty fragments, tombstones, fragments
	// an SMN2 checkpoint listed).
	KeyBytes int
}

// ManifestInfo is a decoded store checkpoint.
type ManifestInfo struct {
	Format    string // "SMN2" or "SMN3"
	Kind      core.Kind
	Codec     compress.ID
	Shape     tensor.Shape
	NextID    uint64
	Fragments []ManifestFragmentInfo
}

// IsManifest reports whether data starts with a store-checkpoint magic
// ("SMN" and a version byte — DecodeManifestInfo then rejects any
// version but SMN2 and SMN3 by name). Tooling uses it to dispatch
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
		Format: fmt.Sprintf("SMN%d", m.version),
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
		if fr.keys != nil {
			fi.KeyBytes = fr.keys.EncodedSize()
		}
		info.Fragments = append(info.Fragments, fi)
	}
	return info, nil
}
