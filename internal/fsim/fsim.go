// Package fsim abstracts the file system under the fragment store and
// provides the simulated Lustre backend that stands in for the paper's
// NERSC Perlmutter environment.
//
// Two backends implement FS:
//
//   - OSFS writes real files under a root directory, for wall-clock runs.
//   - SimFS keeps fragments in memory and charges each operation to a
//     calibrated cost model (fixed per-operation latency plus bytes over
//     an effective stripe bandwidth). The defaults are calibrated from
//     the paper's own Table III: the 4D-MSP COO fragment (~22.5 MB)
//     takes 0.1217 s and the LINEAR fragment (~9 MB) takes 0.0504 s,
//     both consistent with ~185 MB/s effective stream bandwidth, while
//     the constant "Others" row (~17 ms) is per-fragment metadata cost.
//
// The store reports the modeled durations in its write/read breakdowns
// whenever the FS implements CostReporter, which is how the benchmark
// harness reproduces Figure 3/5 and Table III deterministically.
package fsim

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparseart/internal/obs"
)

// FS is the minimal file-system surface the fragment store needs. Names
// use forward slashes on every backend.
type FS interface {
	// WriteFile atomically creates or replaces a file.
	WriteFile(name string, data []byte) error
	// Append adds data to the end of a file, creating it if absent. A
	// single Append is atomic on SimFS; on a real file system a crash
	// mid-append can leave a torn tail, which is why the manifest log
	// frames and checksums every record it appends.
	Append(name string, data []byte) error
	// ReadFile returns the full contents of a file. It is a convenience
	// equivalent to Open + one ReadAt of the whole file.
	ReadFile(name string) ([]byte, error)
	// Open returns a ranged-read handle on a file. The caller must
	// Close it. A cold fragment load is one Open, one ReadAt of the
	// whole file and one Close.
	Open(name string) (File, error)
	// List returns, sorted, the names of all files whose name starts
	// with prefix.
	List(prefix string) ([]string, error)
	// Remove deletes a file; removing a missing file is an error.
	Remove(name string) error
	// Size returns the size of a file in bytes.
	Size(name string) (int64, error)
}

// File is an open ranged-read handle: a seekable view of one file that
// transfers only the ranges actually read. On cost-modeled backends each
// ReadAt charges bytes-over-bandwidth for its range alone.
type File interface {
	io.ReaderAt
	io.Closer
	// Size returns the file's size in bytes.
	Size() int64
}

// Cost is an accumulated modeled duration split by operation class.
type Cost struct {
	Write time.Duration // data transfer of writes
	Read  time.Duration // data transfer of reads
	Meta  time.Duration // fixed per-operation (open/create/stat) latency
}

// Total returns the sum of all components.
func (c Cost) Total() time.Duration { return c.Write + c.Read + c.Meta }

func (c *Cost) add(o Cost) {
	c.Write += o.Write
	c.Read += o.Read
	c.Meta += o.Meta
}

// CostReporter is implemented by backends with a cost model. TakeCost
// returns the modeled cost accumulated since the previous call and
// resets the accumulator, letting the store attribute I/O cost to the
// phase that incurred it.
type CostReporter interface {
	TakeCost() Cost
}

// Stats aggregates traffic counters for a backend.
type Stats struct {
	WriteOps, ReadOps, MetaOps int64
	BytesWritten, BytesRead    int64
	Modeled                    Cost
}

// CostModel parameterizes SimFS. All fields must be positive.
type CostModel struct {
	// OpLatency is the fixed cost charged to every metadata-touching
	// operation (create, open, stat, list, remove).
	OpLatency time.Duration
	// Bandwidth is the effective stream bandwidth in bytes/second that
	// a single stripe sustains.
	Bandwidth float64
	// Stripes is the stripe count; transfers larger than one stripe
	// unit are spread across stripes, dividing transfer time.
	Stripes int
	// StripeUnit is the bytes per stripe chunk; transfers smaller than
	// one unit see single-stripe bandwidth.
	StripeUnit int64
}

// PerlmutterLustre returns the cost model calibrated against Table III
// (see the package comment). Stripes is 1 because the paper's fragments
// are single files written from one process.
func PerlmutterLustre() CostModel {
	return CostModel{
		OpLatency:  8 * time.Millisecond,
		Bandwidth:  185e6,
		Stripes:    1,
		StripeUnit: 1 << 20,
	}
}

func (m CostModel) validate() error {
	if m.OpLatency < 0 || m.Bandwidth <= 0 || m.Stripes < 1 || m.StripeUnit < 1 {
		return fmt.Errorf("fsim: invalid cost model %+v", m)
	}
	return nil
}

// transferTime models moving n bytes.
func (m CostModel) transferTime(n int64) time.Duration {
	if n <= 0 {
		return 0
	}
	stripes := int64(m.Stripes)
	units := (n + m.StripeUnit - 1) / m.StripeUnit
	if units < stripes {
		stripes = units
	}
	if stripes < 1 {
		stripes = 1
	}
	perStripe := float64(n) / float64(stripes)
	return time.Duration(perStripe / m.Bandwidth * float64(time.Second))
}

// SimFS is an in-memory file system with a Lustre-like cost model. It is
// safe for concurrent use.
type SimFS struct {
	mu      sync.Mutex
	files   map[string][]byte
	model   CostModel
	stats   Stats
	pending Cost
}

// NewSimFS returns a SimFS with the given cost model.
func NewSimFS(model CostModel) (*SimFS, error) {
	if err := model.validate(); err != nil {
		return nil, err
	}
	return &SimFS{files: map[string][]byte{}, model: model}, nil
}

// NewPerlmutterSim returns a SimFS with the Table III calibration.
func NewPerlmutterSim() *SimFS {
	fs, err := NewSimFS(PerlmutterLustre())
	if err != nil {
		panic(err) // the built-in model is valid by construction
	}
	return fs
}

func (s *SimFS) charge(c Cost) {
	s.pending.add(c)
	s.stats.Modeled.add(c)
}

// observeOp records one operation's wall time next to its modeled cost
// (the "per-op modeled vs. wall latency" pair) and its byte traffic, in
// the process-wide registry.
func (s *SimFS) observeOp(op string, start time.Time, modeled Cost, bytes int64) {
	reg := obs.Global()
	if reg == nil {
		return
	}
	reg.Histogram("fsim.op.wall", "op", op).Observe(time.Since(start))
	reg.Histogram("fsim.op.modeled", "op", op).Observe(modeled.Total())
	reg.Counter("fsim.ops", "op", op).Inc()
	if bytes > 0 {
		reg.Counter("fsim.bytes", "op", op).Add(bytes)
	}
}

// WriteFile implements FS.
func (s *SimFS) WriteFile(name string, data []byte) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
	s.stats.WriteOps++
	s.stats.BytesWritten += int64(len(data))
	cost := Cost{Meta: s.model.OpLatency, Write: s.model.transferTime(int64(len(data)))}
	s.charge(cost)
	s.observeOp("write", start, cost, int64(len(data)))
	return nil
}

// Append implements FS. The whole append lands atomically (SimFS holds
// its lock across the mutation), and the cost model charges one metadata
// latency plus transfer time for the appended bytes alone — which is
// what makes a manifest-log append O(1) in store size where WriteFile
// of a full manifest is O(fragments).
func (s *SimFS) Append(name string, data []byte) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copy-on-append keeps outstanding Open handles (which snapshot the
	// current slice) immutable, mirroring WriteFile's replace semantics.
	old := s.files[name]
	grown := make([]byte, 0, len(old)+len(data))
	grown = append(append(grown, old...), data...)
	s.files[name] = grown
	s.stats.WriteOps++
	s.stats.BytesWritten += int64(len(data))
	cost := Cost{Meta: s.model.OpLatency, Write: s.model.transferTime(int64(len(data)))}
	s.charge(cost)
	s.observeOp("append", start, cost, int64(len(data)))
	return nil
}

// ReadFile implements FS.
func (s *SimFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	s.stats.ReadOps++
	s.stats.BytesRead += int64(len(data))
	cost := Cost{Meta: s.model.OpLatency, Read: s.model.transferTime(int64(len(data)))}
	s.charge(cost)
	s.observeOp("read", start, cost, int64(len(data)))
	return append([]byte(nil), data...), nil
}

// Open implements FS. The open itself charges one metadata latency (the
// open RPC); each subsequent ReadAt charges transfer time for the bytes
// it returns alone.
func (s *SimFS) Open(name string) (File, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	s.stats.MetaOps++
	cost := Cost{Meta: s.model.OpLatency}
	s.charge(cost)
	s.observeOp("open", start, cost, 0)
	// The handle snapshots the current contents: WriteFile replaces the
	// map entry with a fresh slice, so this view stays immutable even if
	// the file is overwritten or removed after Open.
	return &simFile{fs: s, name: name, data: data}, nil
}

// simFile is a ranged-read handle on a SimFS snapshot.
type simFile struct {
	fs   *SimFS
	name string
	data []byte
}

// ReadAt implements io.ReaderAt, charging the cost model for the range.
func (f *simFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	if off < 0 {
		return 0, &fs.PathError{Op: "read", Path: f.name, Err: fmt.Errorf("negative offset %d", off)}
	}
	var n int
	if off < int64(len(f.data)) {
		n = copy(p, f.data[off:])
	}
	f.fs.mu.Lock()
	f.fs.stats.ReadOps++
	f.fs.stats.BytesRead += int64(n)
	cost := Cost{Read: f.fs.model.transferTime(int64(n))}
	f.fs.charge(cost)
	f.fs.observeOp("read", start, cost, int64(n))
	f.fs.mu.Unlock()
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *simFile) Size() int64 { return int64(len(f.data)) }

func (f *simFile) Close() error { return nil }

// List implements FS.
func (s *SimFS) List(prefix string) ([]string, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for name := range s.files {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	s.stats.MetaOps++
	cost := Cost{Meta: s.model.OpLatency}
	s.charge(cost)
	s.observeOp("list", start, cost, 0)
	return names, nil
}

// Remove implements FS.
func (s *SimFS) Remove(name string) error {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(s.files, name)
	s.stats.MetaOps++
	cost := Cost{Meta: s.model.OpLatency}
	s.charge(cost)
	s.observeOp("remove", start, cost, 0)
	return nil
}

// Size implements FS.
func (s *SimFS) Size(name string) (int64, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok {
		return 0, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	s.stats.MetaOps++
	cost := Cost{Meta: s.model.OpLatency}
	s.charge(cost)
	s.observeOp("stat", start, cost, 0)
	return int64(len(data)), nil
}

// TakeCost implements CostReporter.
func (s *SimFS) TakeCost() Cost {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.pending
	s.pending = Cost{}
	return c
}

// Stats returns a snapshot of the traffic counters.
func (s *SimFS) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters and any pending cost.
func (s *SimFS) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
	s.pending = Cost{}
}

// OSFS stores files under a root directory on the real file system.
type OSFS struct {
	root string
}

// NewOSFS returns an OSFS rooted at dir, creating it if needed.
func NewOSFS(dir string) (*OSFS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fsim: create root: %w", err)
	}
	return &OSFS{root: dir}, nil
}

func (o *OSFS) path(name string) string {
	return filepath.Join(o.root, filepath.FromSlash(name))
}

// WriteFile implements FS, creating parent directories as needed and
// renaming into place for atomicity.
func (o *OSFS) WriteFile(name string, data []byte) error {
	p := o.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp opens the scratch file mode 0600; fix the mode on the
	// descriptor (bypassing the umask) so the published file is
	// world-readable like a plain create would leave it.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// Append implements FS. The data goes out in one O_APPEND write, which
// keeps concurrent appenders from interleaving; durability against a
// torn tail after a crash is the caller's problem (the manifest log
// CRC-frames its records and truncates a torn tail on replay).
func (o *OSFS) Append(name string, data []byte) error {
	p := o.path(name)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile implements FS.
func (o *OSFS) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(o.path(name))
}

// Open implements FS with one openat: the descriptor is read-only and
// close-on-exec, and unlike os.Open it is not registered with the
// runtime's poller (a regular file never blocks there), carries no
// finalizer and is not stat'ed. The caller must Close it.
func (o *OSFS) Open(name string) (File, error) {
	p := o.path(name)
	for {
		fd, err := syscall.Open(p, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, &fs.PathError{Op: "open", Path: p, Err: err}
		}
		return &osFile{fd: fd, path: p}, nil
	}
}

// osFile is a raw read-only descriptor: a ReadAt is one pread (more
// only past maxPread or after EINTR) and Close is one close. A removed file stays readable through it until
// Close, as through any POSIX descriptor.
type osFile struct {
	fd   int
	path string
}

// maxPread bounds one pread; Linux transfers at most just under 2 GiB a
// call, so a larger range takes several.
const maxPread = 1 << 30

// ReadAt implements io.ReaderAt. A pread that returns fewer bytes than
// it asked for means end of file, so a read that runs past the end costs
// one pread, not a second one to see zero bytes.
func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &fs.PathError{Op: "read", Path: f.path, Err: fmt.Errorf("negative offset %d", off)}
	}
	done := 0
	for done < len(p) {
		want := min(len(p)-done, maxPread)
		n, err := syscall.Pread(f.fd, p[done:done+want], off+int64(done))
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return done, &fs.PathError{Op: "read", Path: f.path, Err: err}
		}
		done += n
		if n < want {
			return done, io.EOF
		}
	}
	return done, nil
}

// Size fstats the descriptor; the fragment loader never asks, since the
// manifest records every fragment's size. It returns -1 if the fstat
// fails.
func (f *osFile) Size() int64 {
	var st syscall.Stat_t
	if err := syscall.Fstat(f.fd, &st); err != nil {
		return -1
	}
	return st.Size
}

// Close implements io.Closer. A handle must be closed exactly once.
func (f *osFile) Close() error {
	if err := syscall.Close(f.fd); err != nil {
		return &fs.PathError{Op: "close", Path: f.path, Err: err}
	}
	return nil
}

// List implements FS.
func (o *OSFS) List(prefix string) ([]string, error) {
	var names []string
	err := filepath.WalkDir(o.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(o.root, p)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		if strings.HasPrefix(name, prefix) && !strings.HasPrefix(filepath.Base(name), ".tmp-") {
			names = append(names, name)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS.
func (o *OSFS) Remove(name string) error {
	return os.Remove(o.path(name))
}

// Size implements FS.
func (o *OSFS) Size(name string) (int64, error) {
	fi, err := os.Stat(o.path(name))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

var (
	_ FS           = (*SimFS)(nil)
	_ FS           = (*OSFS)(nil)
	_ CostReporter = (*SimFS)(nil)
)
