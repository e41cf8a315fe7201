// Package fragment defines the on-disk unit of the storage engine: one
// immutable file holding a packed coordinate index (an organization's
// payload) concatenated with the reorganized value buffer, as produced
// by line 6 of Algorithm 3's WRITE ("b_frag <- b_coor_new + b_data").
//
// The header carries what Algorithm 3's READ needs before unpacking:
// the organization kind, the tensor shape, the point count, and the
// bounding box used for the fragment-overlap search ("Find all fragments
// containing b_coor").
//
// One layout exists on disk (docs/FORMATS.md §1 is the byte-level spec):
// a fixed-size preamble records the length and CRC32 of four
// independently checksummed sections — header/bbox, payload, values,
// and an optional per-dimension coordinate filter (internal/filter) the
// overlap search consults to skip fragments whose bbox overlaps a query
// but whose coordinates don't. OpenAt decodes the header from one small
// ranged read and fetches payload/values lazily; the filter section is
// last, so the payload+values pair stays contiguous and LoadSections
// costs one ranged read.
//
// The payload section is self-describing (compress.EncodeSection), so a
// section can be decoded without consulting any other section.
package fragment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"sparseart/internal/buf"
	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/filter"
	"sparseart/internal/tensor"
)

const (
	magic   = 0x46415053 // "SPAF"
	version = 3          // the one layout Encode writes and OpenAt reads

	// preambleSize is the fixed section table at the head of the file;
	// the sections follow back to back: header, payload, values, filter.
	// docs/FORMATS.md §1 lists the fields.
	preambleSize = 60

	// openReadSize is the speculative first ranged read of OpenAt: large
	// enough to cover the preamble plus the header section of any
	// fragment up to ~20 dimensions in a single round trip.
	openReadSize = 512
)

// ErrCorrupt reports a fragment that fails structural or checksum
// validation.
var ErrCorrupt = fmt.Errorf("fragment: corrupt fragment")

// Header is the fragment metadata, available without reading the payload
// or values sections.
type Header struct {
	Version uint16 // on-disk layout version
	Kind    core.Kind
	Codec   compress.ID
	Shape   tensor.Shape
	NNZ     uint64
	BBox    tensor.BBox // inclusive; undefined when NNZ == 0 and not a tombstone
	// Tombstone marks a deletion fragment: it carries no points, and
	// its payload is the deleted region. Cells covered by a tombstone
	// are dead unless rewritten by a later fragment.
	Tombstone bool
	Bytes     int64    // total encoded size
	Stored    struct { // section sizes inside the file
		Payload int64 // possibly compressed, incl. codec-ID byte
		Values  int64
		Filter  int64 // coordinate-filter section (0 = none)
	}
}

// Fragment is a decoded fragment.
type Fragment struct {
	Header
	Payload []byte    // decompressed organization payload
	Values  []float64 // values in packed (permuted) order
	// Filter is the optional per-dimension coordinate summary consulted
	// by the overlap search. nil for empty fragments and tombstones.
	Filter *filter.Filter
}

// encodeHeaderSection serializes the header section.
func encodeHeaderSection(f *Fragment) ([]byte, error) {
	d := f.Shape.Dims()
	w := buf.NewWriter(14 + 24*d)
	var flags uint16
	if f.Tombstone {
		flags |= 1
	}
	w.U8(uint8(f.Kind))
	w.U8(uint8(f.Codec))
	w.U16(uint16(d))
	w.U16(flags)
	w.RawU64s(f.Shape)
	w.U64(f.NNZ)
	if f.NNZ > 0 || f.Tombstone {
		if f.BBox.Dims() != d {
			return nil, fmt.Errorf("fragment: bbox rank %d for %d-dim shape", f.BBox.Dims(), d)
		}
		w.RawU64s(f.BBox.Min)
		w.RawU64s(f.BBox.Max)
	} else {
		w.RawU64s(make([]uint64, 2*d))
	}
	return w.Bytes(), nil
}

// Encode serializes a fragment in the sectioned layout. The payload
// section is compressed with the header's codec; values are stored raw.
func Encode(f *Fragment) ([]byte, error) {
	return AppendEncode(nil, f)
}

// AppendEncode serializes a fragment in the sectioned layout into
// dst's spare capacity (dst is truncated first), growing it only when
// too small. Bulk ingest recycles encode buffers through a pool, so
// back-to-back encodes of similarly sized fragments allocate nothing
// for the output; the value section is serialized directly into the
// output instead of through an intermediate buffer.
func AppendEncode(dst []byte, f *Fragment) ([]byte, error) {
	if !f.Kind.Valid() {
		return nil, fmt.Errorf("fragment: invalid kind %v", f.Kind)
	}
	if err := f.Shape.Validate(); err != nil {
		return nil, err
	}
	if uint64(len(f.Values)) != f.NNZ {
		return nil, fmt.Errorf("fragment: %d values for %d points", len(f.Values), f.NNZ)
	}
	header, err := encodeHeaderSection(f)
	if err != nil {
		return nil, err
	}
	payload, err := compress.EncodeSection(f.Codec, f.Payload)
	if err != nil {
		return nil, err
	}
	var filt []byte
	if f.Filter != nil {
		filt = f.Filter.Encode()
	}
	need := preambleSize + len(header) + len(payload) + 8*len(f.Values) + len(filt)
	var out []byte
	if cap(dst) >= need {
		out = dst[:need]
	} else {
		out = make([]byte, need)
	}
	copy(out[preambleSize:], header)
	copy(out[preambleSize+len(header):], payload)
	values := out[preambleSize+len(header)+len(payload) : preambleSize+len(header)+len(payload)+8*len(f.Values)]
	for i, v := range f.Values {
		binary.LittleEndian.PutUint64(values[8*i:], math.Float64bits(v))
	}
	copy(out[preambleSize+len(header)+len(payload)+len(values):], filt)
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint16(out[4:], version)
	binary.LittleEndian.PutUint16(out[6:], 0)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(header)))
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[24:], uint64(len(values)))
	binary.LittleEndian.PutUint32(out[32:], crc32.ChecksumIEEE(header))
	binary.LittleEndian.PutUint32(out[36:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(out[40:], crc32.ChecksumIEEE(values))
	binary.LittleEndian.PutUint64(out[44:], uint64(len(filt)))
	binary.LittleEndian.PutUint32(out[52:], crc32.ChecksumIEEE(filt))
	binary.LittleEndian.PutUint32(out[56:], crc32.ChecksumIEEE(out[:56]))
	return out, nil
}

// parseHeaderSection decodes the header section body.
func parseHeaderSection(b []byte) (*Header, error) {
	r := buf.NewReader(b)
	kind := core.Kind(r.U8())
	codecID := compress.ID(r.U8())
	d := int(r.U16())
	flags := r.U16()
	shape := tensor.Shape(r.RawU64s(uint64(d)))
	nnz := r.U64()
	bmin := r.RawU64s(uint64(d))
	bmax := r.RawU64s(uint64(d))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing header bytes", ErrCorrupt, r.Remaining())
	}
	if !kind.Valid() {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(kind))
	}
	if err := shape.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	h := &Header{
		Version:   version,
		Kind:      kind,
		Codec:     codecID,
		Shape:     shape,
		NNZ:       nnz,
		Tombstone: flags&1 != 0,
		BBox:      tensor.BBox{Min: bmin, Max: bmax},
	}
	if h.Tombstone && nnz != 0 {
		return nil, fmt.Errorf("%w: tombstone with %d points", ErrCorrupt, nnz)
	}
	return h, nil
}

// preamble is the parsed fixed-offset section table.
type preamble struct {
	headerLen, payloadLen, valuesLen int64
	filterLen                        int64 // 0 = no filter
	headerCRC, payloadCRC, valuesCRC uint32
	filterCRC                        uint32
}

func (p preamble) totalSize() int64 {
	return preambleSize + p.headerLen + p.payloadLen + p.valuesLen + p.filterLen
}

// parsePreamble validates and decodes the fixed section table. The
// caller has already matched magic and version.
func parsePreamble(b []byte) (*preamble, error) {
	if len(b) < preambleSize {
		return nil, fmt.Errorf("%w: too short for preamble", ErrCorrupt)
	}
	const crcOff = preambleSize - 4
	if got, want := crc32.ChecksumIEEE(b[:crcOff]), binary.LittleEndian.Uint32(b[crcOff:]); got != want {
		return nil, fmt.Errorf("%w: preamble checksum mismatch (got %#x want %#x)", ErrCorrupt, got, want)
	}
	if binary.LittleEndian.Uint16(b[6:]) != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved field", ErrCorrupt)
	}
	p := &preamble{
		headerLen:  int64(binary.LittleEndian.Uint64(b[8:])),
		payloadLen: int64(binary.LittleEndian.Uint64(b[16:])),
		valuesLen:  int64(binary.LittleEndian.Uint64(b[24:])),
		headerCRC:  binary.LittleEndian.Uint32(b[32:]),
		payloadCRC: binary.LittleEndian.Uint32(b[36:]),
		valuesCRC:  binary.LittleEndian.Uint32(b[40:]),
		filterLen:  int64(binary.LittleEndian.Uint64(b[44:])),
		filterCRC:  binary.LittleEndian.Uint32(b[52:]),
	}
	const maxSection = 1 << 40 // generous structural bound against nonsense lengths
	if p.headerLen < 0 || p.payloadLen < 1 || p.valuesLen < 0 || p.valuesLen%8 != 0 ||
		p.filterLen < 0 || p.headerLen > maxSection || p.payloadLen > maxSection ||
		p.valuesLen > maxSection || p.filterLen > maxSection {
		return nil, fmt.Errorf("%w: implausible section lengths %d/%d/%d/%d", ErrCorrupt, p.headerLen, p.payloadLen, p.valuesLen, p.filterLen)
	}
	return p, nil
}

// Lazy is a fragment opened for ranged access: the header is decoded,
// but payload and values are fetched and verified only when first asked
// for. A Lazy does not own the underlying reader; callers must keep it
// open until the sections they need are loaded (LoadSections or
// Materialize make that point explicit). Methods are safe for concurrent
// use.
type Lazy struct {
	Header

	src io.ReaderAt
	pre preamble

	mu         sync.Mutex
	rawPayload []byte // stored payload section (verified)
	rawValues  []byte // stored values section (verified)
	payload    []byte // decompressed payload
	values     []float64
	filter     *filter.Filter
	filterDone bool // filter section loaded (or absent)
	bytesRead  int64
}

// SectionInfo locates one section inside the fragment file, for
// inspection tooling.
type SectionInfo struct {
	Name   string
	Offset int64
	Len    int64
	CRC    uint32
}

// Sections returns the section table in file order. The filter entry
// appears only when the file carries one.
func (l *Lazy) Sections() []SectionInfo {
	s := []SectionInfo{
		{"header", preambleSize, l.pre.headerLen, l.pre.headerCRC},
		{"payload", preambleSize + l.pre.headerLen, l.pre.payloadLen, l.pre.payloadCRC},
		{"values", preambleSize + l.pre.headerLen + l.pre.payloadLen, l.pre.valuesLen, l.pre.valuesCRC},
	}
	if l.pre.filterLen > 0 {
		s = append(s, SectionInfo{"filter", preambleSize + l.pre.headerLen + l.pre.payloadLen + l.pre.valuesLen, l.pre.filterLen, l.pre.filterCRC})
	}
	return s
}

// OpenAt decodes a fragment header from a ranged reader with (typically)
// one small read; the payload/values sections are deferred until
// LoadSections, Payload, Values, or Materialize.
func OpenAt(src io.ReaderAt, size int64) (*Lazy, error) {
	if size < 6 {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorrupt, size)
	}
	first := make([]byte, min(size, openReadSize))
	if _, err := io.ReadFull(io.NewSectionReader(src, 0, size), first); err != nil {
		return nil, fmt.Errorf("fragment: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(first) != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(first))
	}
	if ver := binary.LittleEndian.Uint16(first[4:]); ver != version {
		return nil, fmt.Errorf("%w: unsupported layout version %d (this build reads version %d only)", ErrCorrupt, ver, version)
	}
	p, err := parsePreamble(first)
	if err != nil {
		return nil, err
	}
	if p.totalSize() != size {
		return nil, fmt.Errorf("%w: section table says %d bytes, file has %d", ErrCorrupt, p.totalSize(), size)
	}
	header := make([]byte, p.headerLen)
	n := copy(header, first[preambleSize:])
	read := int64(len(first))
	if int64(n) < p.headerLen {
		if _, err := src.ReadAt(header[n:], preambleSize+int64(n)); err != nil {
			return nil, fmt.Errorf("fragment: read header section: %w", err)
		}
		read = preambleSize + p.headerLen
	}
	if got := crc32.ChecksumIEEE(header); got != p.headerCRC {
		return nil, fmt.Errorf("%w: header checksum mismatch (got %#x want %#x)", ErrCorrupt, got, p.headerCRC)
	}
	h, err := parseHeaderSection(header)
	if err != nil {
		return nil, err
	}
	if p.valuesLen != int64(8*h.NNZ) {
		return nil, fmt.Errorf("%w: values section %d bytes for %d points", ErrCorrupt, p.valuesLen, h.NNZ)
	}
	h.Bytes = size
	h.Stored.Payload = p.payloadLen
	h.Stored.Values = p.valuesLen
	h.Stored.Filter = p.filterLen
	return &Lazy{Header: *h, src: src, pre: *p, bytesRead: read}, nil
}

// BytesRead returns the raw bytes fetched from the underlying reader so
// far (header probe plus any loaded sections).
func (l *Lazy) BytesRead() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesRead
}

// LoadSections fetches and CRC-verifies the payload and values sections
// (one contiguous ranged read — they are adjacent on disk) without
// decompressing anything. It is idempotent. After LoadSections returns,
// the underlying reader is no longer touched by Payload or Values.
func (l *Lazy) LoadSections() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.loadSectionsLocked()
}

func (l *Lazy) loadSectionsLocked() error {
	if l.rawPayload != nil {
		return nil
	}
	both := make([]byte, l.pre.payloadLen+l.pre.valuesLen)
	off := preambleSize + l.pre.headerLen
	if _, err := l.src.ReadAt(both, off); err != nil {
		return fmt.Errorf("fragment: read sections: %w", err)
	}
	l.bytesRead += int64(len(both))
	payload := both[:l.pre.payloadLen]
	values := both[l.pre.payloadLen:]
	if got := crc32.ChecksumIEEE(payload); got != l.pre.payloadCRC {
		return fmt.Errorf("%w: payload checksum mismatch (got %#x want %#x)", ErrCorrupt, got, l.pre.payloadCRC)
	}
	if got := crc32.ChecksumIEEE(values); got != l.pre.valuesCRC {
		return fmt.Errorf("%w: values checksum mismatch (got %#x want %#x)", ErrCorrupt, got, l.pre.valuesCRC)
	}
	l.rawPayload = payload
	l.rawValues = values
	return nil
}

// Payload returns the decompressed organization payload, loading and
// decoding the payload section on first use.
func (l *Lazy) Payload() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.payload != nil {
		return l.payload, nil
	}
	if err := l.loadSectionsLocked(); err != nil {
		return nil, err
	}
	payload, id, err := compress.DecodeSection(l.rawPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if id != l.Codec {
		return nil, fmt.Errorf("%w: payload codec %d, header says %d", ErrCorrupt, id, l.Codec)
	}
	l.payload = payload
	return payload, nil
}

// Values returns the value buffer, loading the values section on first
// use.
func (l *Lazy) Values() ([]float64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.values == nil {
		if err := l.loadSectionsLocked(); err != nil {
			return nil, err
		}
		values := make([]float64, l.NNZ)
		for i := range values {
			values[i] = math.Float64frombits(binary.LittleEndian.Uint64(l.rawValues[8*i:]))
		}
		l.values = values
	}
	return l.values, nil
}

// Filter returns the fragment's coordinate filter, loading and
// verifying the filter section on first use. A file without a filter
// section returns (nil, nil).
func (l *Lazy) Filter() (*filter.Filter, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.filterDone {
		return l.filter, nil
	}
	if l.pre.filterLen == 0 {
		l.filterDone = true
		return nil, nil
	}
	raw := make([]byte, l.pre.filterLen)
	off := preambleSize + l.pre.headerLen + l.pre.payloadLen + l.pre.valuesLen
	if _, err := l.src.ReadAt(raw, off); err != nil {
		return nil, fmt.Errorf("fragment: read filter section: %w", err)
	}
	l.bytesRead += int64(len(raw))
	if got := crc32.ChecksumIEEE(raw); got != l.pre.filterCRC {
		return nil, fmt.Errorf("%w: filter checksum mismatch (got %#x want %#x)", ErrCorrupt, got, l.pre.filterCRC)
	}
	f, err := filter.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: filter: %v", ErrCorrupt, err)
	}
	l.filter = f
	l.filterDone = true
	return f, nil
}

// Materialize loads every section and returns the fully decoded
// fragment.
func (l *Lazy) Materialize() (*Fragment, error) {
	payload, err := l.Payload()
	if err != nil {
		return nil, err
	}
	values, err := l.Values()
	if err != nil {
		return nil, err
	}
	filt, err := l.Filter()
	if err != nil {
		return nil, err
	}
	return &Fragment{Header: l.Header, Payload: payload, Values: values, Filter: filt}, nil
}

// Decode parses and verifies a full in-memory fragment.
func Decode(b []byte) (*Fragment, error) {
	l, err := OpenAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	return l.Materialize()
}
