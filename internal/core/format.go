// Package core defines the contracts shared by the five sparse-tensor
// storage organizations the paper studies — COO, LINEAR, GCSR++, GCSC++,
// and CSF — plus a registry the storage engine and benchmark harness use
// to iterate over them.
//
// A Format packages an unsorted coordinate buffer into an opaque payload
// (the organization's serialized index) and a permutation — the "map"
// vector of Algorithms 1 and 2 — that tells the caller where each input
// point's value lives in the packed order. A Reader answers point
// queries against a payload, returning the value slot, which indexes the
// value buffer after it has been reorganized by the same permutation.
package core

import (
	"fmt"
	"sort"
	"sync"

	"sparseart/internal/tensor"
)

// Kind identifies a storage organization. The zero value is invalid.
type Kind uint8

const (
	// COO is the coordinate-list baseline (§II-A), kept unsorted to
	// match the paper's analyzed variant.
	COO Kind = iota + 1
	// COOSorted is the sorted-coordinate variant whose trade-off §II-A
	// discusses but does not benchmark: O(n log n) build, O(log n)
	// probes.
	COOSorted
	// Linear stores row-major linear addresses (§II-B).
	Linear
	// GCSR is GCSR++ (§II-C, Algorithm 1).
	GCSR
	// GCSC is GCSC++ (§II-D).
	GCSC
	// CSF is the compressed-sparse-fiber tree (§II-E, Algorithm 2).
	CSF
	// BCOO is a HiCOO-style blocked coordinate format (§II-A mentions
	// HiCOO among the COO variants the paper's matrix excludes): points
	// are grouped into aligned blocks whose within-block offsets fit in
	// one byte per dimension. Implemented here as an extension for the
	// ablation study.
	BCOO
)

var kindNames = map[Kind]string{
	COO:       "COO",
	COOSorted: "COO-sorted",
	Linear:    "LINEAR",
	GCSR:      "GCSR++",
	GCSC:      "GCSC++",
	CSF:       "CSF",
	BCOO:      "BCOO",
}

// String returns the paper's name for the organization.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k names a known organization.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// ParseKind resolves an organization name (case-sensitive, the String
// form or a few aliases) to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "COO", "coo":
		return COO, nil
	case "COO-sorted", "coo-sorted", "scoo":
		return COOSorted, nil
	case "LINEAR", "linear":
		return Linear, nil
	case "GCSR++", "GCSR", "gcsr":
		return GCSR, nil
	case "GCSC++", "GCSC", "gcsc":
		return GCSC, nil
	case "CSF", "csf":
		return CSF, nil
	case "BCOO", "bcoo", "hicoo":
		return BCOO, nil
	}
	return 0, fmt.Errorf("core: unknown organization %q", s)
}

// PaperKinds returns the five organizations of the paper's evaluation,
// in the column order of its tables: COO, LINEAR, GCSR++, GCSC++, CSF.
func PaperKinds() []Kind {
	return []Kind{COO, Linear, GCSR, GCSC, CSF}
}

// BuildResult is the output of packaging a coordinate buffer.
type BuildResult struct {
	// Payload is the serialized index, self-describing enough for the
	// same Format to Open it later.
	Payload []byte
	// Perm is the paper's "map" vector: Perm[i] is the slot of input
	// point i in the packed order. nil means identity (COO, LINEAR).
	Perm []int
}

// Format builds and opens one organization.
type Format interface {
	// Kind identifies the organization.
	Kind() Kind
	// Build packages the points of c, which must lie inside shape.
	// Implementations must not mutate c.
	Build(c *tensor.Coords, shape tensor.Shape) (*BuildResult, error)
	// Open parses a payload produced by Build for the same shape. The
	// Reader may keep views of payload (its pos and crd vectors, where
	// aligned, and byte-wide levels always), so payload must not be
	// mutated or recycled while the Reader is in use.
	Open(payload []byte, shape tensor.Shape) (Reader, error)
}

// Reader answers point-existence queries against a packed index,
// following the paper's READ algorithms (GCSR++_READ, CSF_READ, and the
// scan-based reads of COO and LINEAR).
type Reader interface {
	// NNZ returns the number of stored points.
	NNZ() int
	// Lookup returns the value slot holding point p, if present.
	Lookup(p []uint64) (slot int, ok bool)
}

// PayloadSizer is implemented by readers that can report the exact
// index footprint in units of the 8-byte index type, the quantity the
// paper's space-complexity analysis counts.
type PayloadSizer interface {
	IndexWords() int
}

// Iterator is implemented by every reader in this module (Index): Each
// visits all stored points with their value slots, in payload order;
// returning false stops the walk. The storage engine builds fragment
// compaction, organization conversion and in-store kernels on top of
// it.
type Iterator interface {
	Each(visit func(p []uint64, slot int) bool)
}

// RegionScanner is implemented by every reader in this module (Index):
// ScanRegion visits exactly the steps of Each whose point lies inside
// the region, in the same order, pruning at every level the region
// bounds (the CSF tree descends only subtrees intersecting it).
// ScanShare estimates the share of the points inside box that walk
// reaches, were they spread uniformly over box: the price of a scan
// that a read planner weighs against probing every cell.
type RegionScanner interface {
	ScanRegion(r tensor.Region, visit func(p []uint64, slot int) bool)
	ScanShare(r tensor.Region, box tensor.BBox) float64
}

var (
	regMu    sync.RWMutex
	registry = map[Kind]Format{}
)

// Register installs a format. Later registrations of the same Kind
// replace earlier ones; format subpackages call this from init.
func Register(f Format) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[f.Kind()] = f
}

// Get returns the registered format for k.
func Get(k Kind) (Format, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[k]
	if !ok {
		return nil, fmt.Errorf("core: organization %v not registered (import sparseart/internal/core/all)", k)
	}
	return f, nil
}

// Registered returns all registered formats in Kind order.
func Registered() []Format {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Format, 0, len(registry))
	for _, f := range registry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind() < out[j].Kind() })
	return out
}
