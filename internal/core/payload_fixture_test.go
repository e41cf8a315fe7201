package core_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"sparseart/internal/core"
	_ "sparseart/internal/core/all"
	"sparseart/internal/core/coretest"
	"sparseart/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite the payload goldens")

// payloadCase is one input of the payload goldens.
type payloadCase struct {
	name  string
	shape tensor.Shape
	c     *tensor.Coords
}

func coordsOf(dims int, flat ...uint64) *tensor.Coords {
	c := tensor.NewCoords(dims, len(flat)/dims)
	c.AppendFlat(flat)
	return c
}

// payloadCases are the inputs every organization is pinned on: the
// paper's Fig. 1, a 1-D shape wider than one BCOO block, a 2-D set with
// duplicate input points, a clustered 4-D set with outliers, the empty
// set, and a shape whose minimum extent is not dimension 0.
func payloadCases() []payloadCase {
	fig1Shape, fig1 := coretest.PaperExample()
	clustered := tensor.NewCoords(4, 0)
	for a := uint64(150); a < 154; a++ {
		for b := uint64(3); b < 6; b++ {
			for c := uint64(250); c < 254; c++ {
				for d := uint64(0); d < 8; d += 3 {
					clustered.Append(a, b, c, d)
				}
			}
		}
	}
	clustered.Append(0, 0, 0, 0)
	clustered.Append(199, 15, 299, 7)
	clustered.Append(7, 8, 131, 1)
	return []payloadCase{
		{"fig1", fig1Shape, fig1},
		{"1d", tensor.Shape{300}, coordsOf(1, 5, 0, 299, 17, 130, 128)},
		{"2d-dups", tensor.Shape{6, 9}, coordsOf(2, 2, 3, 0, 8, 2, 3, 5, 0, 0, 8, 1, 1, 2, 3)},
		{"4d-clustered", tensor.Shape{200, 16, 300, 8}, clustered},
		{"empty", tensor.Shape{4, 4}, tensor.NewCoords(2, 0)},
		{"min-not-first", tensor.Shape{9, 2, 5}, coordsOf(3, 8, 1, 4, 0, 0, 0, 3, 1, 2, 3, 0, 2, 8, 0, 4, 4, 1, 1)},
	}
}

// payloadMeta is what a golden pins beside the payload bytes.
type payloadMeta struct {
	Perm       []int `json:"perm"`
	NNZ        int   `json:"nnz"`
	IndexWords int   `json:"index_words"`
}

// TestPayloadFixtureStable pins the bytes every organization writes:
// testdata/payloads/<kind>-<case>.bin is the payload Build produced
// for each case when the goldens were recorded, and meta.json the
// permutation, NNZ and IndexWords that went with it. Build must keep
// producing exactly those bytes and that permutation, and the payload
// must keep opening to the same counts. Run with -update to re-record
// (only for an intended format change).
func TestPayloadFixtureStable(t *testing.T) {
	dir := filepath.Join("testdata", "payloads")
	metaPath := filepath.Join(dir, "meta.json")
	want := map[string]payloadMeta{}
	if !*update {
		data, err := os.ReadFile(metaPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]payloadMeta{}
	for _, f := range core.Registered() {
		for _, tc := range payloadCases() {
			name := f.Kind().String() + "-" + tc.name
			built, err := f.Build(tc.c, tc.shape)
			if err != nil {
				t.Fatalf("%s: Build: %v", name, err)
			}
			r, err := f.Open(built.Payload, tc.shape)
			if err != nil {
				t.Fatalf("%s: Open: %v", name, err)
			}
			meta := payloadMeta{Perm: built.Perm, NNZ: r.NNZ(), IndexWords: r.(core.PayloadSizer).IndexWords()}
			got[name] = meta
			path := filepath.Join(dir, name+".bin")
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, built.Payload, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(built.Payload, golden) {
				t.Errorf("%s: payload drifted from the golden:\n got %x\nwant %x", name, built.Payload, golden)
			}
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: no golden metadata", name)
				continue
			}
			if !slices.Equal(meta.Perm, w.Perm) || meta.NNZ != w.NNZ || meta.IndexWords != w.IndexWords {
				t.Errorf("%s: perm %v nnz %d words %d, golden perm %v nnz %d words %d",
					name, meta.Perm, meta.NNZ, meta.IndexWords, w.Perm, w.NNZ, w.IndexWords)
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(metaPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if len(got) != len(want) {
		t.Errorf("%d goldens recorded, %d built", len(want), len(got))
	}
}
