package buf

import (
	"math/bits"
	"sync"
)

// The writer pool recycles serialization buffers across hot-path
// encodes (manifest checkpoints, manifest-log records, fragment
// headers) and across the wire's frames, both the ones a process sends
// and the payloads it receives. A large ingest serializes thousands of
// small buffers and a point probe moves four frames; with the pool they
// reuse a handful of allocations instead of one each. Writers are kept
// in size classes, powers of two from 256 B to 1 MiB, so a 100-byte
// probe frame never takes the buffer a 40 KB region reply left behind,
// and a large request does not grow a small buffer only to drop it.

const (
	minClassBits = 8  // 256 B
	maxClassBits = 20 // 1 MiB: a larger hint gets a writer of its own
)

var writerPools [maxClassBits - minClassBits + 1]sync.Pool

// GetWriter returns a pooled writer with at least capHint bytes of
// capacity. Callers must not retain the writer's Bytes past PutWriter.
func GetWriter(capHint int) *Writer {
	c := minClassBits
	if capHint > 1<<minClassBits {
		c = bits.Len(uint(capHint - 1)) // the smallest class holding capHint
	}
	if c > maxClassBits {
		return NewWriter(capHint)
	}
	if w, _ := writerPools[c-minClassBits].Get().(*Writer); w != nil {
		w.Reset()
		return w
	}
	return &Writer{b: make([]byte, 0, 1<<c)}
}

// PutWriter recycles a writer obtained from GetWriter (or any writer
// the caller is done with). The caller must be done with every slice
// previously returned by Bytes — a recycled writer overwrites them. A
// writer is filed under the largest class its capacity covers; buffers
// under 256 B or over 2 MiB are dropped rather than pooled, so one
// huge serialization doesn't pin memory forever.
func PutWriter(w *Writer) {
	if w == nil {
		return
	}
	c := bits.Len(uint(cap(w.b))) - 1
	if c < minClassBits || c > maxClassBits {
		return
	}
	w.Reset()
	writerPools[c-minClassBits].Put(w)
}
