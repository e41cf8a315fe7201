package filter

import (
	"fmt"
	"math/bits"

	"sparseart/internal/buf"
	"sparseart/internal/tensor"
)

const (
	// keyBitsPerKey sizes a key filter: about 0.8 % false positives at
	// keyHashes probes, 1.25 bytes per stored point.
	keyBitsPerKey = 10
	keyHashes     = 7
	// maxKeyHashes bounds a decoded filter's probe count.
	maxKeyHashes = 16
)

// Keys is a Bloom filter over a fragment's whole keys: the linear
// address of every stored point in its store's frame. It is the one
// filter a point probe asks — a probe whose every coordinate occurs in
// the fragment, but not together, is dismissed here. False positives are allowed; false negatives never
// happen. A Keys is immutable after construction and safe for
// concurrent use.
type Keys struct {
	k uint8
	// bits is ⌈keyBitsPerKey·n / 8⌉ bytes: byte-granular, so a fragment
	// of a few points costs a few bytes.
	bits []byte
}

// BuildKeys summarizes the linear addresses (under lin) of c's points.
// Returns nil when c is empty. Like Build, the result is a pure
// function of c's point set.
func BuildKeys(c *tensor.Coords, lin *tensor.Linearizer) *Keys {
	n := c.Len()
	if n == 0 {
		return nil
	}
	ks := &Keys{k: keyHashes, bits: make([]byte, (n*keyBitsPerKey+7)/8)}
	for i := 0; i < n; i++ {
		h1, h2 := keyHash(lin.Linearize(c.At(i)))
		for j := uint8(0); j < ks.k; j++ {
			b, mask := ks.probe(h1, h2, j)
			ks.bits[b] |= mask
		}
	}
	return ks
}

// keyHash derives the double-hashing pair of one address.
func keyHash(addr uint64) (h1, h2 uint64) {
	h1 = mix64(addr ^ 0x6a09e667f3bcc909)
	return h1, mix64(h1) | 1
}

// probe locates a key's j-th bit: the high word of (h1 + j·h2)·nbits,
// which maps onto any width, not just a power of two.
func (ks *Keys) probe(h1, h2 uint64, j uint8) (byteIdx int, mask byte) {
	bit, _ := bits.Mul64(h1+uint64(j)*h2, uint64(len(ks.bits))*8)
	return int(bit / 8), 1 << (bit % 8)
}

// MayContain reports whether the fragment might hold the point at
// linear address addr. A false result is definitive.
func (ks *Keys) MayContain(addr uint64) bool {
	h1, h2 := keyHash(addr)
	for j := uint8(0); j < ks.k; j++ {
		if b, mask := ks.probe(h1, h2, j); ks.bits[b]&mask == 0 {
			return false
		}
	}
	return true
}

// EncodedSize returns the exact byte length Encode produces.
func (ks *Keys) EncodedSize() int { return 1 + 4 + len(ks.bits) }

// Encode serializes the filter. Layout (little-endian):
//
//	u8  hash count
//	u32 bit bytes
//	u8[bit bytes] bits (bit i in byte i/8, at position i%8)
func (ks *Keys) Encode() []byte {
	w := buf.NewWriter(ks.EncodedSize())
	w.U8(ks.k)
	w.Bytes32(ks.bits)
	return w.Bytes()
}

// DecodeKeys parses an encoded key filter. DecodeKeys(Encode(ks))
// reproduces ks exactly; the result does not alias b.
func DecodeKeys(b []byte) (*Keys, error) {
	r := buf.NewReader(b)
	k := r.U8()
	bits := r.Bytes32()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("filter: keys: %w", r.Err())
	case k < 1 || k > maxKeyHashes:
		return nil, fmt.Errorf("filter: keys: hash count %d", k)
	case len(bits) == 0:
		return nil, fmt.Errorf("filter: keys: no bits")
	case r.Remaining() != 0:
		return nil, fmt.Errorf("filter: keys: %d trailing bytes", r.Remaining())
	}
	return &Keys{k: k, bits: append([]byte(nil), bits...)}, nil
}
