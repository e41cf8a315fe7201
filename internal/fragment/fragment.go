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
// a fixed-size preamble records the length and CRC32 of each
// independently checksummed section — header/bbox, payload, values —
// and OpenAt reads the whole file in one ranged read and verifies every
// section before it returns. The preamble also has room for a trailing
// filter section, which earlier writers filled with the fragment's
// coordinate filter; a fragment's filters now live in the store's
// manifest only, so Encode writes none, and a file that carries one
// opens with it size-checked and listed by Sections but never checked
// or decoded.
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

	"sparseart/internal/buf"
	"sparseart/internal/compress"
	"sparseart/internal/core"
	"sparseart/internal/tensor"
)

const (
	magic = 0x46415053 // "SPAF"

	// preambleSize is the fixed section table at the head of the file;
	// the sections follow back to back: header, payload, values, and —
	// in a file an earlier writer left — an unread filter section.
	// docs/FORMATS.md §1 lists the fields.
	preambleSize = 60

	// headerFixed is the header section's size before its 24 bytes per
	// dimension (shape, bbox min, bbox max).
	headerFixed = 14

	// maxSection bounds a section's length, a structural check against
	// nonsense lengths; maxFile bounds a whole file the same way.
	maxSection = 1 << 40
	maxFile    = preambleSize + 4*maxSection
)

// Version is the one layout Encode writes and OpenAt reads.
const Version = 3

// ErrCorrupt reports a fragment that fails structural or checksum
// validation.
var ErrCorrupt = fmt.Errorf("fragment: corrupt fragment")

// Header is the fragment metadata: what the header section and the
// section table record.
type Header struct {
	Kind  core.Kind
	Codec compress.ID
	Shape tensor.Shape
	NNZ   uint64
	BBox  tensor.BBox // inclusive; undefined when NNZ == 0 and not a tombstone
	// Tombstone marks a deletion fragment: it carries no points, and
	// its payload is the deleted region. Cells covered by a tombstone
	// are dead unless rewritten by a later fragment.
	Tombstone bool
	Bytes     int64    // total encoded size
	Stored    struct { // section sizes inside the file
		Payload int64 // possibly compressed, incl. codec-ID byte
		Values  int64
	}
}

// Fragment is a decoded fragment.
type Fragment struct {
	Header
	Payload []byte    // decompressed organization payload
	Values  []float64 // values in packed (permuted) order
}

// encodeHeaderSection serializes the header section.
func encodeHeaderSection(f *Fragment) ([]byte, error) {
	d := f.Shape.Dims()
	w := buf.NewWriter(headerFixed + 24*d)
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
	need := preambleSize + len(header) + len(payload) + 8*len(f.Values)
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
	binary.LittleEndian.PutUint32(out[0:], magic)
	binary.LittleEndian.PutUint16(out[4:], Version)
	binary.LittleEndian.PutUint16(out[6:], 0)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(header)))
	binary.LittleEndian.PutUint64(out[16:], uint64(len(payload)))
	binary.LittleEndian.PutUint64(out[24:], uint64(len(values)))
	binary.LittleEndian.PutUint32(out[32:], crc32.ChecksumIEEE(header))
	binary.LittleEndian.PutUint32(out[36:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(out[40:], crc32.ChecksumIEEE(values))
	binary.LittleEndian.PutUint64(out[44:], 0) // no filter section
	binary.LittleEndian.PutUint32(out[52:], 0)
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
	filterLen                        int64 // 0 = no (legacy, unread) filter section
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
	if p.headerLen < 0 || p.payloadLen < 1 || p.valuesLen < 0 || p.valuesLen%8 != 0 ||
		p.filterLen < 0 || p.headerLen > maxSection || p.payloadLen > maxSection ||
		p.valuesLen > maxSection || p.filterLen > maxSection {
		return nil, fmt.Errorf("%w: implausible section lengths %d/%d/%d/%d", ErrCorrupt, p.headerLen, p.payloadLen, p.valuesLen, p.filterLen)
	}
	return p, nil
}

// Raw is a fragment read whole and verified but not yet decoded: the
// header is parsed, and the payload and values sections are
// CRC-checked views of the one buffer OpenAt filled. It is immutable,
// so its methods are safe for concurrent use.
type Raw struct {
	Header

	pre        preamble
	rawPayload []byte // stored payload section, codec-ID byte first
	rawValues  []byte // stored values section
}

// SectionInfo locates one section inside the fragment file, for
// inspection tooling.
type SectionInfo struct {
	Name   string
	Offset int64
	Len    int64
	CRC    uint32
}

// Sections returns the section table in file order. A filter entry
// appears only for a file an earlier writer left with one; its bytes are
// never checked or decoded.
func (r *Raw) Sections() []SectionInfo {
	s := []SectionInfo{
		{"header", preambleSize, r.pre.headerLen, r.pre.headerCRC},
		{"payload", preambleSize + r.pre.headerLen, r.pre.payloadLen, r.pre.payloadCRC},
		{"values", preambleSize + r.pre.headerLen + r.pre.payloadLen, r.pre.valuesLen, r.pre.valuesCRC},
	}
	if r.pre.filterLen > 0 {
		s = append(s, SectionInfo{"filter", preambleSize + r.pre.headerLen + r.pre.payloadLen + r.pre.valuesLen, r.pre.filterLen, r.pre.filterCRC})
	}
	return s
}

// OpenAt reads a size-byte fragment from src with one ReadAt and
// verifies all of it: magic, version, the preamble, header, payload and
// values checksums, and a section table that adds up to exactly size.
// The read asks for one byte more than size, so a file longer than size
// is refused as well as a shorter one. A store passes the size its
// manifest recorded for the file.
func OpenAt(src io.ReaderAt, size int64) (*Raw, error) {
	if size < preambleSize || size > maxFile {
		return nil, fmt.Errorf("%w: %d-byte file", ErrCorrupt, size)
	}
	// One buffer, placed so that the payload body after its codec-ID
	// byte starts on a word. That body sits at file offset
	// preambleSize + headerFixed + 24·dims + 1, which is 3 (mod 8) for
	// every rank. Every payload header and vector is a multiple of 8
	// bytes, so an index opened over a raw payload reads its vectors
	// where they lie, and so do Values when the stored payload is
	// 1 (mod 8) bytes long.
	b := buf.Aligned(int(size)+1, preambleSize+headerFixed+1)
	n, err := src.ReadAt(b, 0)
	switch {
	case err != nil && err != io.EOF:
		return nil, fmt.Errorf("fragment: read: %w", err)
	case int64(n) < size:
		return nil, fmt.Errorf("%w: file has %d bytes, want %d", ErrCorrupt, n, size)
	case int64(n) > size:
		return nil, fmt.Errorf("%w: file is longer than %d bytes", ErrCorrupt, size)
	}
	b = b[:size:size]
	if binary.LittleEndian.Uint32(b) != magic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.LittleEndian.Uint32(b))
	}
	if ver := binary.LittleEndian.Uint16(b[4:]); ver != Version {
		return nil, fmt.Errorf("%w: unsupported layout version %d (this build reads version %d only)", ErrCorrupt, ver, Version)
	}
	p, err := parsePreamble(b)
	if err != nil {
		return nil, err
	}
	if p.totalSize() != size {
		return nil, fmt.Errorf("%w: section table says %d bytes, file has %d", ErrCorrupt, p.totalSize(), size)
	}
	header := b[preambleSize : preambleSize+p.headerLen]
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
	off := preambleSize + p.headerLen
	payload := b[off : off+p.payloadLen]
	values := b[off+p.payloadLen : off+p.payloadLen+p.valuesLen]
	if got := crc32.ChecksumIEEE(payload); got != p.payloadCRC {
		return nil, fmt.Errorf("%w: payload checksum mismatch (got %#x want %#x)", ErrCorrupt, got, p.payloadCRC)
	}
	if got := crc32.ChecksumIEEE(values); got != p.valuesCRC {
		return nil, fmt.Errorf("%w: values checksum mismatch (got %#x want %#x)", ErrCorrupt, got, p.valuesCRC)
	}
	h.Bytes = size
	h.Stored.Payload = p.payloadLen
	h.Stored.Values = p.valuesLen
	return &Raw{Header: *h, pre: *p, rawPayload: payload, rawValues: values}, nil
}

// Payload decodes the organization payload. Under the None codec it is
// a view of the section, which an index opened over it keeps views of
// in turn; callers must not mutate it.
func (r *Raw) Payload() ([]byte, error) {
	payload, id, err := compress.DecodeSection(r.rawPayload)
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if id != r.Codec {
		return nil, fmt.Errorf("%w: payload codec %d, header says %d", ErrCorrupt, id, r.Codec)
	}
	return payload, nil
}

// Values returns the value buffer. It is a view of the section where
// the section is word-aligned, so callers must not mutate it.
func (r *Raw) Values() []float64 { return buf.F64View(r.rawValues) }

// Materialize returns the fully decoded fragment.
func (r *Raw) Materialize() (*Fragment, error) {
	payload, err := r.Payload()
	if err != nil {
		return nil, err
	}
	return &Fragment{Header: r.Header, Payload: payload, Values: r.Values()}, nil
}

// Decode parses and verifies a full in-memory fragment.
func Decode(b []byte) (*Fragment, error) {
	l, err := OpenAt(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	return l.Materialize()
}
