package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	iofs "io/fs"

	"sparseart/internal/buf"
	"sparseart/internal/filter"
	"sparseart/internal/fragment"
	"sparseart/internal/tensor"
)

// The manifest is a checkpoint plus an append-only delta log. MANIFEST
// holds the full fragment list as of the last checkpoint; MANIFEST.LOG
// holds one framed, CRC-guarded record per fragment or tombstone
// committed since (docs/FORMATS.md §2 is the byte-level spec of both).
// A write therefore costs one O(record) append instead of an
// O(fragments) manifest rewrite — the fixed ~17 ms "Others" row of the
// paper's Table III stops growing with store size. Open replays the log over the checkpoint; Compact,
// Close, and the every-K policy fold the log back into a checkpoint.
//
// Record frame (little-endian):
//
//	u32 magic "SML1"
//	u32 CRC32 of the body
//	u32 body length
//	body
//
// Record body:
//
//	u64 fragment id (the frag-%06d sequence number)
//	u8  flags (bit0: tombstone, bit1: coordinate filter present,
//	          bit2: key filter present)
//	b32 fragment file name
//	u64 nnz
//	u64 encoded bytes
//	u64[dims] bbox min   (zeros when nnz == 0 and not a tombstone)
//	u64[dims] bbox max
//	u64[dims] tombstone region start  (tombstones only)
//	u64[dims] tombstone region size   (tombstones only)
//	b32 coordinate filter              (flag bit1 only)
//	b32 key filter                     (flag bit2 only)
//
// Recovery invariant: the fragment file is durable before its record is
// appended, and a record is applied only if its frame verifies, so a
// crash anywhere leaves the store either seeing a fragment fully or not
// at all. Records whose id precedes the checkpoint's nextID are stale
// remnants of an interrupted fold and are skipped on replay; a torn
// tail (partial append) is truncated away on the next Open.
const (
	manifestLogName  = "MANIFEST.LOG"
	manifestLogMagic = 0x314c4d53 // "SML1"

	// defaultCheckpointMin floors the automatic checkpoint cadence so a
	// small store doesn't checkpoint on every write.
	defaultCheckpointMin = 16
)

// WithManifestCheckpointEvery folds the manifest log into a fresh
// checkpoint every k fragment commits. k = 1 checkpoints on every write
// (an O(fragments) rewrite per commit); k <= 0 restores the default
// adaptive policy, which checkpoints once the log holds as many records
// as the checkpoint holds fragments (amortized O(1) metadata per write).
func WithManifestCheckpointEvery(k int) Option {
	return func(s *Store) { s.ckptEvery = k }
}

// logName returns the store's manifest-log path.
func (s *tile) logName() string { return s.prefix + "/" + manifestLogName }

// cadence returns the checkpoint threshold in log records: the explicit
// WithManifestCheckpointEvery value, or the adaptive policy — let the
// log grow to the checkpoint's size before paying an O(fragments) fold,
// so per-write metadata cost stays amortized O(1) no matter how many
// fragments accumulate.
func (s *tile) cadence() int {
	k := s.ckptEvery
	if k <= 0 {
		k = s.lastCkptFrags
		if k < defaultCheckpointMin {
			k = defaultCheckpointMin
		}
	}
	return k
}

// checkpointDue reports whether the log has grown past the cadence.
func (s *tile) checkpointDue() bool {
	return s.logRecords >= s.cadence()
}

// entryFlags is the flags byte a checkpoint entry and a log record
// share: bit 0 tombstone, bit 1 coordinate filter present, bit 2 key
// filter present.
func (fr *fragRef) entryFlags() uint8 {
	var flags uint8
	if fr.tomb {
		flags |= 1
	}
	if fr.filter != nil {
		flags |= 2
	}
	if fr.keys != nil {
		flags |= 4
	}
	return flags
}

// appendFilters writes the filter blobs entryFlags announces, in bit
// order; both end an entry and a record.
func (fr *fragRef) appendFilters(w *buf.Writer) {
	if fr.filter != nil {
		w.Bytes32(fr.filter.Encode())
	}
	if fr.keys != nil {
		w.Bytes32(fr.keys.Encode())
	}
}

// readFilters parses the filter blobs flags announce into fr.
func (fr *fragRef) readFilters(r *buf.Reader, flags uint8) error {
	if flags&2 != 0 {
		filt, err := filter.Decode(r.Bytes32())
		if err != nil {
			return err
		}
		fr.filter = filt
	}
	if flags&4 != 0 {
		keys, err := filter.DecodeKeys(r.Bytes32())
		if err != nil {
			return err
		}
		fr.keys = keys
	}
	return nil
}

// encodeLogBody serializes one record body (see the frame spec above).
func encodeLogBody(w *buf.Writer, fr fragRef, id uint64, dims int) {
	w.U64(id)
	w.U8(fr.entryFlags())
	w.Bytes32([]byte(fr.name))
	w.U64(fr.nnz)
	w.U64(uint64(fr.bytes))
	if fr.nnz > 0 || fr.tomb {
		w.RawU64s(fr.bbox.Min)
		w.RawU64s(fr.bbox.Max)
	} else {
		w.RawU64s(make([]uint64, 2*dims))
	}
	if fr.tomb {
		w.RawU64s(fr.tombRegion.Start)
		w.RawU64s(fr.tombRegion.Size)
	}
	fr.appendFilters(w)
}

// decodeLogBody parses one record body.
func decodeLogBody(body []byte, dims int) (fr fragRef, id uint64, err error) {
	r := buf.NewReader(body)
	id = r.U64()
	flags := r.U8()
	fr.name = string(r.Bytes32())
	fr.nnz = r.U64()
	fr.bytes = int64(r.U64())
	fr.bbox.Min = r.RawU64s(uint64(dims))
	fr.bbox.Max = r.RawU64s(uint64(dims))
	if flags&1 != 0 {
		fr.tomb = true
		fr.tombRegion.Start = r.RawU64s(uint64(dims))
		fr.tombRegion.Size = r.RawU64s(uint64(dims))
	}
	if err := fr.readFilters(r, flags); err != nil {
		return fragRef{}, 0, fmt.Errorf("store: record: %w", err)
	}
	if err := r.Err(); err != nil {
		return fragRef{}, 0, err
	}
	if r.Remaining() != 0 {
		return fragRef{}, 0, fmt.Errorf("store: %d trailing record bytes", r.Remaining())
	}
	return fr, id, nil
}

// appendFramedRecord frames one record (magic, CRC, length, body) onto
// dst. The frame is identical whether a record travels alone or
// concatenated with its group (stageFragment + flushStaged): replay
// never needs to know how records were batched.
func appendFramedRecord(dst []byte, fr fragRef, id uint64, dims int) []byte {
	body := buf.GetWriter(64 + 32*dims)
	defer buf.PutWriter(body)
	encodeLogBody(body, fr, id, dims)
	rec := buf.GetWriter(12 + body.Len())
	defer buf.PutWriter(rec)
	rec.U32(manifestLogMagic)
	rec.U32(crc32.ChecksumIEEE(body.Bytes()))
	rec.Bytes32(body.Bytes())
	return append(dst, rec.Bytes()...)
}

// stageFragment is the first half of the store's one manifest commit:
// it enters one mutation — a fragment, or a log-structured tombstone —
// into the in-memory state and the group-commit staging buffer. The
// framed record joins its group and becomes durable at the next
// flushStaged, which lands every staged record in one manifest-log
// Append; a lone Write or DeleteRegion is a group of one. Callers must
// flush before reporting the mutation as committed — the recovery
// invariant "fragment file durable before its record" is unchanged; the
// record is just not durable yet. Returns the framed record's size in
// bytes (DeleteRegion reports it as the tombstone's footprint). The
// caller holds writeMu.
func (s *tile) stageFragment(fr fragRef) int {
	id := s.nextID
	s.nextID++
	s.frags = append(s.frags, fr)
	before := len(s.staged)
	s.staged = appendFramedRecord(s.staged, fr, id, s.shape.Dims())
	s.stagedRecs++
	return len(s.staged) - before
}

// groupFlushDue reports whether the staged group has reached the
// checkpoint cadence. Flushing exactly when (durable + staged) records
// hit the threshold keeps checkpoint timing — and therefore the final
// on-disk bytes — identical to a serial per-fragment commit loop.
func (s *tile) groupFlushDue() bool {
	return s.logRecords+s.stagedRecs >= s.cadence()
}

// flushStaged group-commits every staged record in one Append — the
// O(record) replacement for a per-write manifest rewrite — publishes
// the new snapshot, then checkpoints if the cadence says so: the same
// sequence the equivalent serial appends would have produced, in O(1)
// metadata operations instead of O(records). On append failure the
// staged fragments are rolled back from the in-memory state (their
// records never reached disk, so a fresh Open and this handle agree
// they were never committed) and rolledBack is true. The snapshot is
// published as soon as the records are durable, so a checkpoint-fold
// failure after that surfaces as an error (rolledBack false) but the
// commit itself stands — the next Open simply replays the records.
func (s *tile) flushStaged() (rolledBack bool, err error) {
	if s.stagedRecs == 0 {
		return false, nil
	}
	n, bytes := s.stagedRecs, len(s.staged)
	if err := s.fs.Append(s.logName(), s.staged); err != nil {
		s.frags = s.frags[:len(s.frags)-n]
		s.nextID -= uint64(n)
		s.staged, s.stagedRecs = s.staged[:0], 0
		return true, fmt.Errorf("store: group-commit manifest log: %w", err)
	}
	s.logRecords += n
	s.staged, s.stagedRecs = s.staged[:0], 0
	s.publishLocked()
	reg := s.obsReg()
	kind := s.kind.String()
	reg.Counter("store.manifest.log.appends", "kind", kind).Inc()
	reg.Counter("store.manifest.log.bytes", "kind", kind).Add(int64(bytes))
	reg.Counter("store.manifest.group.flushes", "kind", kind).Inc()
	reg.Counter("store.manifest.group.records", "kind", kind).Add(int64(n))
	reg.Gauge("store.manifest.log.records", "kind", kind).Set(int64(s.logRecords))
	if s.checkpointDue() {
		return false, s.checkpoint()
	}
	return false, nil
}

// checkpoint folds the current state into MANIFEST and drops the log.
// A crash between the two steps is safe: the stale log records all
// carry ids below the new checkpoint's nextID and are skipped on
// replay.
func (s *tile) checkpoint() error {
	if err := s.writeManifest(); err != nil {
		return err
	}
	if err := s.fs.Remove(s.logName()); err != nil && !errors.Is(err, iofs.ErrNotExist) {
		return fmt.Errorf("store: drop manifest log: %w", err)
	}
	s.logRecords = 0
	s.lastCkptFrags = len(s.frags)
	reg := s.obsReg()
	kind := s.kind.String()
	reg.Counter("store.manifest.checkpoint.count", "kind", kind).Inc()
	reg.Gauge("store.manifest.log.records", "kind", kind).Set(0)
	return nil
}

// replayLog applies MANIFEST.LOG over the checkpointed state during
// Open. A torn tail — a partial append from a crash, or any record
// whose frame fails to verify — ends the replay and is truncated away
// so future appends land after a clean prefix. Records older than the
// checkpoint (an interrupted fold) are skipped.
func (s *tile) replayLog() error {
	data, err := s.fs.ReadFile(s.logName())
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return nil // no log: the state after every checkpoint and Close
		}
		return fmt.Errorf("store: read manifest log: %w", err)
	}
	dims := s.shape.Dims()
	valid := 0 // bytes of verified prefix
	replayed, stale := 0, 0
	r := buf.NewReader(data)
	for r.Remaining() >= 12 {
		if r.U32() != manifestLogMagic {
			break
		}
		crc := r.U32()
		body := r.Bytes32()
		if r.Err() != nil || crc32.ChecksumIEEE(body) != crc {
			break
		}
		fr, id, err := decodeLogBody(body, dims)
		if err != nil {
			break
		}
		if err := s.validateReplayedTombstone(fr); err != nil {
			return err
		}
		valid = len(data) - r.Remaining()
		s.logRecords++
		if id < s.nextID {
			stale++ // folded into the checkpoint by an interrupted fold
			continue
		}
		s.frags = append(s.frags, fr)
		s.nextID = id + 1
		replayed++
	}
	if valid < len(data) {
		// Truncate the torn tail so the next append starts a clean
		// record boundary; everything after `valid` is unreadable.
		if err := s.fs.WriteFile(s.logName(), data[:valid]); err != nil {
			return fmt.Errorf("store: repair manifest log: %w", err)
		}
		s.obsReg().Counter("store.manifest.log.repaired", "kind", s.kind.String()).Inc()
	}
	reg := s.obsReg()
	kind := s.kind.String()
	reg.Counter("store.manifest.log.replayed", "kind", kind).Add(int64(replayed))
	if stale > 0 {
		reg.Counter("store.manifest.log.stale", "kind", kind).Add(int64(stale))
	}
	reg.Gauge("store.manifest.log.records", "kind", kind).Set(int64(s.logRecords))
	return nil
}

// Tombstone region sanity for replayed records: a region with the wrong
// rank would poison later reads, so validate like DeleteRegion does.
func (s *tile) validateReplayedTombstone(fr fragRef) error {
	if !fr.tomb {
		return nil
	}
	if fr.tombRegion.Dims() != s.shape.Dims() {
		return fmt.Errorf("store: manifest log: %w: tombstone rank %d for %d-dim store", fragment.ErrCorrupt, fr.tombRegion.Dims(), s.shape.Dims())
	}
	if _, err := tensor.NewRegion(s.shape, fr.tombRegion.Start, fr.tombRegion.Size); err != nil {
		return fmt.Errorf("store: manifest log: %w: tombstone region: %v", fragment.ErrCorrupt, err)
	}
	return nil
}
