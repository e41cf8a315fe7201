package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"

	"sparseart/internal/obs"
)

func TestFrameTraceRoundTrip(t *testing.T) {
	var b bytes.Buffer
	tc := obs.TraceContext{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210, Span: 42, Sampled: true}
	payload := []byte{9, 8, 7}
	if err := WriteFrameTrace(&b, MsgQuery, 7, tc, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, id, got, gp, err := ReadFrameTrace(&b)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != MsgQuery || id != 7 || got != tc || !bytes.Equal(gp, payload) {
		t.Fatalf("round trip: typ=%#x id=%d tc=%+v payload=%v", typ, id, got, gp)
	}
}

// TestFrameTraceLegacyReaderTolerance: a legacy consumer using
// ReadFrame must decode a trace-carrying frame identically, minus the
// context it does not understand.
func TestFrameTraceLegacyReaderTolerance(t *testing.T) {
	var b bytes.Buffer
	tc := obs.TraceContext{Hi: 1, Lo: 2, Span: 3, Sampled: true}
	payload := []byte("payload")
	if err := WriteFrameTrace(&b, MsgWriteBatch, 99, tc, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	typ, id, got, err := ReadFrame(&b)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != MsgWriteBatch || id != 99 || !bytes.Equal(got, payload) {
		t.Fatalf("legacy read: typ=%#x id=%d payload=%q", typ, id, got)
	}
}

// TestFrameTraceZeroContextBytesIdentical: writing with a zero trace
// context must produce exactly the pre-trace frame bytes, so untraced
// peers interoperate with old ones byte for byte.
func TestFrameTraceZeroContextBytesIdentical(t *testing.T) {
	var old, with bytes.Buffer
	payload := []byte{1, 2, 3}
	if err := WriteFrame(&old, MsgKernel, 5, payload); err != nil {
		t.Fatalf("write old: %v", err)
	}
	if err := WriteFrameTrace(&with, MsgKernel, 5, obs.TraceContext{}, payload); err != nil {
		t.Fatalf("write zero-tc: %v", err)
	}
	if !bytes.Equal(old.Bytes(), with.Bytes()) {
		t.Fatalf("zero-tc frame differs from legacy frame:\n%x\n%x", old.Bytes(), with.Bytes())
	}
	// And an old-format frame read by the new reader yields a zero tc.
	typ, id, tc, got, err := ReadFrameTrace(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if typ != MsgKernel || id != 5 || tc.Valid() || tc.Sampled || !bytes.Equal(got, payload) {
		t.Fatalf("old-format read: typ=%#x id=%d tc=%+v payload=%v", typ, id, tc, got)
	}
}

func TestWriteFrameTraceRejectsFlaggedType(t *testing.T) {
	var b bytes.Buffer
	if err := WriteFrameTrace(&b, MsgQuery|FlagTrace, 1, obs.TraceContext{}, nil); err == nil {
		t.Fatal("type byte with the trace flag set was accepted")
	}
}

// FuzzFrameTrace hammers the frame codec with arbitrary trace contexts
// and payloads: whatever is written must read back identically through
// ReadFrameTrace, and through ReadFrame minus the context.
func FuzzFrameTrace(f *testing.F) {
	f.Add(uint8(MsgQuery), uint64(1), uint64(0), uint64(0), uint64(0), false, []byte{})
	f.Add(uint8(MsgObs), uint64(1<<63), uint64(1), uint64(2), uint64(3), true, []byte("abc"))
	f.Add(uint8(MsgErr), uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), true, bytes.Repeat([]byte{0xAA}, 100))
	f.Fuzz(func(t *testing.T, typ uint8, id, hi, lo, span uint64, sampled bool, payload []byte) {
		typ &^= FlagTrace // the flag is the codec's, not the caller's
		tc := obs.TraceContext{Hi: hi, Lo: lo, Span: span, Sampled: sampled}
		var b bytes.Buffer
		if err := WriteFrameTrace(&b, typ, id, tc, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		wire := b.Bytes()
		gtyp, gid, gtc, gp, err := ReadFrameTrace(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !tc.Valid() {
			// An unidentified trace cannot ride the wire; the frame
			// must be the legacy format and decode to a zero context.
			tc = obs.TraceContext{}
			if len(wire) != frameHeaderLen+len(payload) {
				t.Fatalf("zero-tc frame has %d bytes, want %d", len(wire), frameHeaderLen+len(payload))
			}
		}
		if gtyp != typ || gid != id || gtc != tc || !bytes.Equal(gp, payload) {
			t.Fatalf("round trip: typ=%#x/%#x id=%d/%d tc=%+v/%+v payload=%d/%d bytes",
				gtyp, typ, gid, id, gtc, tc, len(gp), len(payload))
		}
		ltyp, lid, lp, err := ReadFrame(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("legacy read: %v", err)
		}
		if ltyp != typ || lid != id || !bytes.Equal(lp, payload) {
			t.Fatalf("legacy read mismatch: typ=%#x id=%d", ltyp, lid)
		}
	})
}

// TestReadFrameAllocatesForBytesReceived: a header announcing MaxFrame
// with no payload behind it is a truncated frame, refused before the
// reader has allocated more than the eager megabyte; a real payload
// past that size still arrives whole.
func TestReadFrameAllocatesForBytesReceived(t *testing.T) {
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr, MaxFrame)
	hdr[4] = MsgQuery
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, err := ReadFrameTrace(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("1 GiB header then EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("1 GiB header then EOF allocated %d bytes, want < 2 MiB", got)
	}

	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7}, (3<<20)/7+1) // not a power of two
	var b bytes.Buffer
	if err := WriteFrame(&b, MsgOK, 9, payload); err != nil {
		t.Fatal(err)
	}
	typ, id, got, err := ReadFrame(&b)
	if err != nil || typ != MsgOK || id != 9 || !bytes.Equal(got, payload) {
		t.Fatalf("3 MiB frame: typ=%#x id=%d len=%d err=%v", typ, id, len(got), err)
	}
}
