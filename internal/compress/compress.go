// Package compress implements the orthogonal compression layer the paper
// positions below the storage organizations (§II: "choose a basic sparse
// organization first and then apply compression algorithms to further
// reduce data size", the TileDB/HDF5 practice). Codecs transform a
// fragment payload byte-for-byte; the fragment header records which
// codec was applied so readers can invert it.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sparseart/internal/obs"
)

// ID identifies a codec in fragment headers. The zero value means "not
// compressed".
type ID uint8

const (
	// None stores the payload verbatim.
	None ID = 0
	// DeltaVarint interprets the payload as little-endian uint64s and
	// stores zigzag-encoded deltas as varints. It shines on sorted
	// streams (LINEAR addresses, CSR pointers, CSF fptr levels).
	DeltaVarint ID = 1
	// RLE is byte-level run-length encoding, effective on long zero or
	// repeat runs.
	RLE ID = 2
)

// ErrCorrupt reports an undecodable compressed payload.
var ErrCorrupt = errors.New("compress: corrupt payload")

// maxDecodedSize bounds how large a decoded payload may claim to be,
// protecting decoders from allocation bombs in corrupt input. 1 GiB is
// far beyond any fragment this module writes.
const maxDecodedSize = 1 << 30

// Codec encodes and decodes byte payloads. Decode(Encode(p)) == p for
// every input. Decode may return its input (None does), so a caller
// must treat the result as sharing src: neither is mutated or recycled
// while the other is in use.
type Codec interface {
	ID() ID
	Name() string
	Encode(src []byte) []byte
	Decode(src []byte) ([]byte, error)
}

// Get returns the codec for an ID. The returned codec reports its
// encode/decode time and byte ratio to the process-wide obs registry
// when one is enabled.
func Get(id ID) (Codec, error) {
	switch id {
	case None:
		return observed{noneCodec{}}, nil
	case DeltaVarint:
		return observed{deltaVarintCodec{}}, nil
	case RLE:
		return observed{rleCodec{}}, nil
	}
	return nil, fmt.Errorf("compress: unknown codec id %d", id)
}

// All returns every registered codec, None first.
func All() []Codec {
	return []Codec{observed{noneCodec{}}, observed{deltaVarintCodec{}}, observed{rleCodec{}}}
}

// observed wraps a codec with obs instrumentation: per-codec encode and
// decode latency histograms plus input/output byte counters, from which
// the achieved compression ratio follows. When the global registry is
// nil the wrapper costs one atomic load per call.
type observed struct {
	inner Codec
}

func (o observed) ID() ID       { return o.inner.ID() }
func (o observed) Name() string { return o.inner.Name() }

func (o observed) Encode(src []byte) []byte {
	reg := obs.Global()
	if reg == nil {
		return o.inner.Encode(src)
	}
	t := time.Now()
	out := o.inner.Encode(src)
	name := o.inner.Name()
	reg.Histogram("compress.encode", "codec", name).Observe(time.Since(t))
	reg.Counter("compress.encode.in_bytes", "codec", name).Add(int64(len(src)))
	reg.Counter("compress.encode.out_bytes", "codec", name).Add(int64(len(out)))
	return out
}

func (o observed) Decode(src []byte) ([]byte, error) {
	reg := obs.Global()
	if reg == nil {
		return o.inner.Decode(src)
	}
	t := time.Now()
	out, err := o.inner.Decode(src)
	name := o.inner.Name()
	reg.Histogram("compress.decode", "codec", name).Observe(time.Since(t))
	if err != nil {
		reg.Counter("compress.decode.errors", "codec", name).Inc()
		return out, err
	}
	reg.Counter("compress.decode.in_bytes", "codec", name).Add(int64(len(src)))
	reg.Counter("compress.decode.out_bytes", "codec", name).Add(int64(len(out)))
	return out, err
}

// EncodeSection compresses one fragment section with the given codec and
// prefixes the result with the codec ID, making the section
// self-describing: a ranged reader can decode it without consulting any
// other section. This is the codec boundary the sectioned fragment
// layout stores on disk.
func EncodeSection(id ID, src []byte) ([]byte, error) {
	c, err := Get(id)
	if err != nil {
		return nil, err
	}
	enc := c.Encode(src)
	out := make([]byte, 0, len(enc)+1)
	out = append(out, byte(id))
	return append(out, enc...), nil
}

// DecodeSection inverts EncodeSection, returning the raw bytes and the
// codec ID the section was written with. Under None the raw bytes are a
// view of src.
func DecodeSection(src []byte) ([]byte, ID, error) {
	if len(src) < 1 {
		return nil, None, fmt.Errorf("%w: empty section", ErrCorrupt)
	}
	id := ID(src[0])
	c, err := Get(id)
	if err != nil {
		return nil, id, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	out, err := c.Decode(src[1:])
	if err != nil {
		return nil, id, err
	}
	return out, id, nil
}

type noneCodec struct{}

func (noneCodec) ID() ID       { return None }
func (noneCodec) Name() string { return "none" }
func (noneCodec) Encode(src []byte) []byte {
	return append([]byte(nil), src...)
}

// Decode returns src itself, capped so an append cannot write past it:
// a payload stored raw is read where it lies.
func (noneCodec) Decode(src []byte) ([]byte, error) {
	return src[:len(src):len(src)], nil
}

type deltaVarintCodec struct{}

func (deltaVarintCodec) ID() ID       { return DeltaVarint }
func (deltaVarintCodec) Name() string { return "delta-varint" }

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

func (deltaVarintCodec) Encode(src []byte) []byte {
	nWords := len(src) / 8
	trailing := src[nWords*8:]
	out := make([]byte, 0, len(src)/2+16)
	out = binary.AppendUvarint(out, uint64(nWords))
	out = binary.AppendUvarint(out, uint64(len(trailing)))
	var prev uint64
	for i := 0; i < nWords; i++ {
		v := binary.LittleEndian.Uint64(src[i*8:])
		out = binary.AppendUvarint(out, zigzag(int64(v-prev)))
		prev = v
	}
	out = append(out, trailing...)
	return out
}

func (deltaVarintCodec) Decode(src []byte) ([]byte, error) {
	nWords, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad word count", ErrCorrupt)
	}
	src = src[k:]
	nTrail, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad trailing count", ErrCorrupt)
	}
	src = src[k:]
	if nWords > uint64(len(src)) || nTrail > uint64(len(src)) { // cheap sanity bound: each word needs >= 1 byte
		return nil, fmt.Errorf("%w: declared sizes exceed payload", ErrCorrupt)
	}
	if nWords*8+nTrail > maxDecodedSize {
		return nil, fmt.Errorf("%w: declared length %d exceeds limit", ErrCorrupt, nWords*8+nTrail)
	}
	out := make([]byte, 0, nWords*8+nTrail)
	var prev uint64
	for i := uint64(0); i < nWords; i++ {
		d, k := binary.Uvarint(src)
		if k <= 0 {
			return nil, fmt.Errorf("%w: truncated delta %d/%d", ErrCorrupt, i, nWords)
		}
		src = src[k:]
		prev += uint64(unzigzag(d))
		out = binary.LittleEndian.AppendUint64(out, prev)
	}
	if uint64(len(src)) != nTrail {
		return nil, fmt.Errorf("%w: trailing bytes: got %d want %d", ErrCorrupt, len(src), nTrail)
	}
	return append(out, src...), nil
}

type rleCodec struct{}

func (rleCodec) ID() ID       { return RLE }
func (rleCodec) Name() string { return "rle" }

func (rleCodec) Encode(src []byte) []byte {
	out := make([]byte, 0, len(src)/4+16)
	out = binary.AppendUvarint(out, uint64(len(src)))
	for i := 0; i < len(src); {
		j := i + 1
		for j < len(src) && src[j] == src[i] {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		out = append(out, src[i])
		i = j
	}
	return out
}

func (rleCodec) Decode(src []byte) ([]byte, error) {
	total, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, fmt.Errorf("%w: bad total length", ErrCorrupt)
	}
	if total > maxDecodedSize {
		return nil, fmt.Errorf("%w: declared length %d exceeds limit", ErrCorrupt, total)
	}
	src = src[k:]
	out := make([]byte, 0, total)
	for len(src) > 0 {
		run, k := binary.Uvarint(src)
		if k <= 0 || k >= len(src)+1 && run > 0 {
			return nil, fmt.Errorf("%w: truncated run", ErrCorrupt)
		}
		src = src[k:]
		if len(src) == 0 {
			return nil, fmt.Errorf("%w: run without byte", ErrCorrupt)
		}
		if uint64(len(out))+run > total {
			return nil, fmt.Errorf("%w: runs exceed declared length %d", ErrCorrupt, total)
		}
		b := src[0]
		src = src[1:]
		for i := uint64(0); i < run; i++ {
			out = append(out, b)
		}
	}
	if uint64(len(out)) != total {
		return nil, fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, len(out), total)
	}
	return out, nil
}
