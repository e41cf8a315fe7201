package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/fsim"
	"sparseart/internal/tensor"
)

// fsCalls counts the file-system calls a store makes.
type fsCalls struct {
	opens, readAts, closes, other int
}

// countingFS passes every call through to the wrapped FS and counts it.
type countingFS struct {
	fsim.FS
	n fsCalls
}

func (c *countingFS) WriteFile(name string, data []byte) error {
	c.n.other++
	return c.FS.WriteFile(name, data)
}

func (c *countingFS) Append(name string, data []byte) error {
	c.n.other++
	return c.FS.Append(name, data)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	c.n.other++
	return c.FS.ReadFile(name)
}

func (c *countingFS) List(prefix string) ([]string, error) {
	c.n.other++
	return c.FS.List(prefix)
}

func (c *countingFS) Remove(name string) error {
	c.n.other++
	return c.FS.Remove(name)
}

func (c *countingFS) Size(name string) (int64, error) {
	c.n.other++
	return c.FS.Size(name)
}

func (c *countingFS) Open(name string) (fsim.File, error) {
	c.n.opens++
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: &c.n}, nil
}

type countingFile struct {
	fsim.File
	n *fsCalls
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	f.n.readAts++
	return f.File.ReadAt(p, off)
}

func (f *countingFile) Size() int64 {
	f.n.other++
	return f.File.Size()
}

func (f *countingFile) Close() error {
	f.n.closes++
	return f.File.Close()
}

// writeCube writes one fragment of n random points of the 64³ cube.
func writeCube(t *testing.T, st *Store, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	c := tensor.NewCoords(3, n)
	vals := make([]float64, n)
	for i := range vals {
		c.Append(uint64(rng.Intn(64)), uint64(rng.Intn(64)), uint64(rng.Intn(64)))
		vals[i] = float64(i)
	}
	if _, err := st.Write(c, vals); err != nil {
		t.Fatal(err)
	}
}

// TestColdLoadIsOneOpenOneReadOneClose: a cold fragment load is one
// Open, one ReadAt and one Close, and nothing else touches the file
// system; a warm repeat touches it not at all.
func TestColdLoadIsOneOpenOneReadOneClose(t *testing.T) {
	cfs := &countingFS{FS: newSim(t)}
	shape := tensor.Shape{64, 64, 64}
	st, err := Create(cfs, "t", core.CSF, shape, WithReaderCache(DefaultCacheBudget))
	if err != nil {
		t.Fatal(err)
	}
	writeCube(t, st, 300)
	region, err := tensor.NewRegion(shape, []uint64{0, 0, 0}, []uint64{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []fsCalls{{opens: 1, readAts: 1, closes: 1}, {}} {
		cfs.n = fsCalls{}
		res, _, err := readRegion(st, region, StrategyAuto)
		if err != nil {
			t.Fatal(err)
		}
		if res.Coords.Len() == 0 {
			t.Fatal("read found no points")
		}
		if cfs.n != want {
			t.Errorf("read made %+v file-system calls, want %+v", cfs.n, want)
		}
	}
}

// TestColdLoadAllocs bounds the heap allocations of one cold CSF
// fragment load from OSFS: a raw descriptor (no os.File, poller entry
// or finalizer), one buffer for the whole file and the index opened over
// it. The budget is the count measured on linux/amd64 with Go 1.24; the
// two-read loader over os.File made 27.
func TestColdLoadAllocs(t *testing.T) {
	ofs, err := fsim.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(ofs, "t", core.CSF, tensor.Shape{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	writeCube(t, st, 300)
	fr := st.currentFrags()[0]
	var rep ReadReport
	got := testing.AllocsPerRun(100, func() {
		if _, err := st.loadFragment(nil, fr, &rep); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 21
	t.Logf("%.1f allocations per cold load (budget %d)", got, budget)
	if got > budget {
		t.Errorf("%.1f allocations per cold load, budget %d", got, budget)
	}
}

// TestColdLoadRefusesDamagedFile: a fragment file one byte short of its
// manifest record, one byte longer, or with one bit flipped in any
// section, makes a read fail with fragment.ErrCorrupt on either backend,
// never answer; restoring the file restores the answer.
func TestColdLoadRefusesDamagedFile(t *testing.T) {
	for _, backend := range []struct {
		name string
		fs   func(t *testing.T) fsim.FS
	}{
		{"sim", func(t *testing.T) fsim.FS { return newSim(t) }},
		{"os", func(t *testing.T) fsim.FS {
			ofs, err := fsim.NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return ofs
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			fs := backend.fs(t)
			shape := tensor.Shape{64, 64, 64}
			st, err := Create(fs, "t", core.CSF, shape, WithReaderCache(0))
			if err != nil {
				t.Fatal(err)
			}
			writeCube(t, st, 300)
			region, err := tensor.NewRegion(shape, []uint64{0, 0, 0}, []uint64{64, 64, 64})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := readRegion(st, region, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			name := st.currentFrags()[0].name
			good, err := fs.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := fragment.OpenAt(bytes.NewReader(good), int64(len(good)))
			if err != nil {
				t.Fatal(err)
			}
			damaged := map[string][]byte{
				"truncated": good[:len(good)-1],
				"trailing":  append(append([]byte(nil), good...), 0),
			}
			flip := func(off int64) []byte {
				b := append([]byte(nil), good...)
				b[off] ^= 0x10
				return b
			}
			damaged["preamble"] = flip(9)
			for _, sec := range raw.Sections() {
				damaged[sec.Name] = flip(sec.Offset + sec.Len/2)
			}
			for what, data := range damaged {
				if err := fs.WriteFile(name, data); err != nil {
					t.Fatal(err)
				}
				if _, _, err := readRegion(st, region, StrategyAuto); !errors.Is(err, fragment.ErrCorrupt) {
					t.Errorf("%s file: read err = %v, want ErrCorrupt", what, err)
				}
			}
			if err := fs.WriteFile(name, good); err != nil {
				t.Fatal(err)
			}
			got, _, err := readRegion(st, region, StrategyAuto)
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(got, want) {
				t.Fatal("the restored file reads a different answer")
			}
		})
	}
}
