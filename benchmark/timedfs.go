package main

import (
	"sync"

	"sparseart/internal/fsim"
)

// fsCounts is a timedFS's running totals, classed the way
// fsim.SimFS.Stats classes them: WriteFile and Append write, ReadFile
// and ReadAt read, Open, List, Remove and Size are metadata.
type fsCounts struct {
	ReadOps, WriteOps, MetaOps, Opens int64
	BytesRead, BytesWritten           int64
	ReadNs, WriteNs, MetaNs           int64
}

// plus returns c + sign·o, field by field.
func (c fsCounts) plus(o fsCounts, sign int64) fsCounts {
	return fsCounts{
		ReadOps: c.ReadOps + sign*o.ReadOps, WriteOps: c.WriteOps + sign*o.WriteOps, MetaOps: c.MetaOps + sign*o.MetaOps,
		Opens: c.Opens + sign*o.Opens, BytesRead: c.BytesRead + sign*o.BytesRead, BytesWritten: c.BytesWritten + sign*o.BytesWritten,
		ReadNs: c.ReadNs + sign*o.ReadNs, WriteNs: c.WriteNs + sign*o.WriteNs, MetaNs: c.MetaNs + sign*o.MetaNs,
	}
}

// timedFS wraps one shard's file system: it passes every call through
// unchanged, counts operations and bytes, and records a span around
// each call. A call made while the shard's backend has a request open
// belongs to that request; any other call is background work
// (compaction, deferred removal) and gets request 0.
type timedFS struct {
	inner fsim.FS
	rec   *recorder
	shard int8
	owner *timedBackend // the shard's backend; nil counts everything as background

	mu sync.Mutex
	n  fsCounts
}

func newTimedFS(inner fsim.FS, rec *recorder, shard int) *timedFS {
	return &timedFS{inner: inner, rec: rec, shard: int8(shard)}
}

func (t *timedFS) counts() fsCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// done closes the span of a call that began at start and books it:
// book adds the call's operations, bytes and time (ns) to the totals.
func (t *timedFS) done(name string, start int64, book func(n *fsCounts, ns int64)) {
	end := t.rec.now()
	t.mu.Lock()
	book(&t.n, end-start)
	t.mu.Unlock()
	var req uint64
	if t.owner != nil && t.owner.open.Load() > 0 {
		req = t.rec.req.Load()
	}
	t.rec.add(span{Name: name, Start: start, End: end, Req: req, Level: levelFS, Shard: t.shard})
}

func (t *timedFS) wrote(name string, start int64, bytes int) {
	t.done(name, start, func(n *fsCounts, ns int64) { n.WriteOps++; n.BytesWritten += int64(bytes); n.WriteNs += ns })
}

func (t *timedFS) read(name string, start int64, bytes int) {
	t.done(name, start, func(n *fsCounts, ns int64) { n.ReadOps++; n.BytesRead += int64(bytes); n.ReadNs += ns })
}

func (t *timedFS) meta(name string, start int64) {
	t.done(name, start, func(n *fsCounts, ns int64) { n.MetaOps++; n.MetaNs += ns })
}

func (t *timedFS) WriteFile(name string, data []byte) error {
	start := t.rec.now()
	err := t.inner.WriteFile(name, data)
	t.wrote("write", start, len(data))
	return err
}

func (t *timedFS) Append(name string, data []byte) error {
	start := t.rec.now()
	err := t.inner.Append(name, data)
	t.wrote("append", start, len(data))
	return err
}

func (t *timedFS) ReadFile(name string) ([]byte, error) {
	start := t.rec.now()
	data, err := t.inner.ReadFile(name)
	t.read("readfile", start, len(data))
	return data, err
}

func (t *timedFS) Open(name string) (fsim.File, error) {
	start := t.rec.now()
	f, err := t.inner.Open(name)
	t.done("open", start, func(n *fsCounts, ns int64) { n.MetaOps++; n.Opens++; n.MetaNs += ns })
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) List(prefix string) ([]string, error) {
	start := t.rec.now()
	names, err := t.inner.List(prefix)
	t.meta("list", start)
	return names, err
}

func (t *timedFS) Remove(name string) error {
	start := t.rec.now()
	err := t.inner.Remove(name)
	t.meta("remove", start)
	return err
}

func (t *timedFS) Size(name string) (int64, error) {
	start := t.rec.now()
	n, err := t.inner.Size(name)
	t.meta("size", start)
	return n, err
}

// timedFile times the ranged reads of one open handle.
type timedFile struct {
	fsim.File
	fs *timedFS
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := f.fs.rec.now()
	n, err := f.File.ReadAt(p, off)
	f.fs.read("readat", start, n)
	return n, err
}
