package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"
)

func TestGet(t *testing.T) {
	for _, id := range []ID{None, DeltaVarint, RLE} {
		c, err := Get(id)
		if err != nil {
			t.Fatalf("Get(%d): %v", id, err)
		}
		if c.ID() != id {
			t.Fatalf("Get(%d).ID() = %d", id, c.ID())
		}
		if c.Name() == "" {
			t.Fatalf("codec %d has no name", id)
		}
	}
	if _, err := Get(200); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestAllListsEveryCodec(t *testing.T) {
	all := All()
	if len(all) != 3 || all[0].ID() != None {
		t.Fatalf("All() = %d codecs, first %v", len(all), all[0].ID())
	}
}

func roundTrip(t *testing.T, c Codec, src []byte) []byte {
	t.Helper()
	enc := c.Encode(src)
	dec, err := c.Decode(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", c.Name(), err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatalf("%s: round trip mismatch: %d bytes in, %d out", c.Name(), len(src), len(dec))
	}
	return enc
}

func TestRoundTripEmpty(t *testing.T) {
	for _, c := range All() {
		roundTrip(t, c, nil)
		roundTrip(t, c, []byte{})
	}
}

func TestRoundTripSmall(t *testing.T) {
	for _, c := range All() {
		roundTrip(t, c, []byte{1})
		roundTrip(t, c, []byte{0, 0, 0})
		roundTrip(t, c, []byte("hello, fragment"))
	}
}

func u64sToBytes(v []uint64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], x)
	}
	return out
}

func TestDeltaVarintCompressesSortedAddresses(t *testing.T) {
	// A sorted LINEAR address stream with small gaps — the codec's
	// design target — must shrink dramatically.
	addrs := make([]uint64, 10000)
	for i := range addrs {
		addrs[i] = uint64(i) * 3
	}
	src := u64sToBytes(addrs)
	enc := roundTrip(t, deltaVarintCodec{}, src)
	if len(enc) > len(src)/4 {
		t.Fatalf("sorted stream compressed %d -> %d, want at least 4x", len(src), len(enc))
	}
}

func TestDeltaVarintUnsortedStillRoundTrips(t *testing.T) {
	addrs := []uint64{100, 5, 1 << 63, 0, 42, 42}
	roundTrip(t, deltaVarintCodec{}, u64sToBytes(addrs))
}

func TestDeltaVarintTrailingBytes(t *testing.T) {
	src := append(u64sToBytes([]uint64{1, 2, 3}), 0xAA, 0xBB, 0xCC)
	roundTrip(t, deltaVarintCodec{}, src)
}

func TestRLECompressesRuns(t *testing.T) {
	src := bytes.Repeat([]byte{0}, 4096)
	enc := roundTrip(t, rleCodec{}, src)
	if len(enc) > 16 {
		t.Fatalf("zero run compressed to %d bytes", len(enc))
	}
	mixed := append(bytes.Repeat([]byte{7}, 100), []byte{1, 2, 3}...)
	roundTrip(t, rleCodec{}, mixed)
}

func TestDecodeCorrupt(t *testing.T) {
	for _, c := range []Codec{deltaVarintCodec{}, rleCodec{}} {
		if _, err := c.Decode([]byte{}); err == nil {
			t.Errorf("%s: empty payload accepted", c.Name())
		}
	}
	// Declared word count with no deltas.
	bad := binary.AppendUvarint(nil, 1000)
	bad = binary.AppendUvarint(bad, 0)
	if _, err := (deltaVarintCodec{}).Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("delta-varint: truncated deltas gave %v", err)
	}
	// RLE runs exceeding the declared total.
	bad = binary.AppendUvarint(nil, 2)
	bad = binary.AppendUvarint(bad, 100)
	bad = append(bad, 7)
	if _, err := (rleCodec{}).Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("rle: oversize run gave %v", err)
	}
	// RLE run header with no byte following.
	bad = binary.AppendUvarint(nil, 1)
	bad = binary.AppendUvarint(bad, 1)
	if _, err := (rleCodec{}).Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("rle: run without byte gave %v", err)
	}
	// RLE that stops short of its declared total.
	bad = binary.AppendUvarint(nil, 10)
	bad = binary.AppendUvarint(bad, 1)
	bad = append(bad, 7)
	if _, err := (rleCodec{}).Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("rle: short payload gave %v", err)
	}
}

func TestNoneCopies(t *testing.T) {
	src := []byte{1, 2, 3}
	enc := noneCodec{}.Encode(src)
	src[0] = 9
	if enc[0] != 1 {
		t.Fatal("none codec aliases its input")
	}
}

// TestNoneDecodeViews: None's Decode returns its input, capped so an
// append reallocates instead of writing past it.
func TestNoneDecodeViews(t *testing.T) {
	src := []byte{1, 2, 3, 4}
	dec, err := noneCodec{}.Decode(src[:3])
	if err != nil || &dec[0] != &src[0] || len(dec) != 3 || cap(dec) != 3 {
		t.Fatalf("Decode = %v (cap %d, err %v), want a view of its input", dec, cap(dec), err)
	}
	if _ = append(dec, 9); src[3] != 4 {
		t.Fatal("an append to the decoded bytes wrote past them")
	}
	raw, id, err := DecodeSection([]byte{byte(None), 5, 6})
	if err != nil || id != None || string(raw) != "\x05\x06" {
		t.Fatalf("DecodeSection = %v, %v, %v", raw, id, err)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 62, -(1 << 62)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag round trip of %d = %d", v, got)
		}
	}
	// Small magnitudes must map to small codes (varint friendliness).
	if zigzag(-1) != 1 || zigzag(1) != 2 {
		t.Fatalf("zigzag(-1)=%d zigzag(1)=%d", zigzag(-1), zigzag(1))
	}
}

// TestRoundTripQuick property-tests every codec on arbitrary byte
// strings.
func TestRoundTripQuick(t *testing.T) {
	for _, c := range All() {
		c := c
		f := func(src []byte) bool {
			enc := c.Encode(src)
			dec, err := c.Decode(enc)
			return err == nil && bytes.Equal(dec, src)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

// TestDecodeGarbageNeverPanicsQuick feeds random bytes to the decoders;
// they may error but must not panic or hang.
func TestDecodeGarbageNeverPanicsQuick(t *testing.T) {
	for _, c := range All() {
		c := c
		f := func(junk []byte) bool {
			_, _ = c.Decode(junk)
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}
