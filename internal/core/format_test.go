package core

import (
	"strings"
	"testing"

	"sparseart/internal/tensor"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		COO:       "COO",
		COOSorted: "COO-sorted",
		Linear:    "LINEAR",
		GCSR:      "GCSR++",
		GCSC:      "GCSC++",
		CSF:       "CSF",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
		if !k.Valid() {
			t.Errorf("%v not valid", k)
		}
	}
	if Kind(0).Valid() || Kind(99).Valid() {
		t.Error("invalid kinds reported valid")
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Errorf("unknown kind string: %q", Kind(99).String())
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{COO, COOSorted, Linear, GCSR, GCSC, CSF} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	for _, alias := range []string{"coo", "linear", "gcsr", "gcsc", "csf", "scoo"} {
		if _, err := ParseKind(alias); err != nil {
			t.Errorf("alias %q rejected: %v", alias, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestPaperKindsOrder(t *testing.T) {
	ks := PaperKinds()
	want := []Kind{COO, Linear, GCSR, GCSC, CSF}
	if len(ks) != len(want) {
		t.Fatalf("PaperKinds = %v", ks)
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("PaperKinds = %v, want %v", ks, want)
		}
	}
}

// fakeFormat is a registry test double.
type fakeFormat struct{ kind Kind }

func (f fakeFormat) Kind() Kind { return f.kind }
func (f fakeFormat) Build(*tensor.Coords, tensor.Shape) (*BuildResult, error) {
	return &BuildResult{}, nil
}
func (f fakeFormat) Open([]byte, tensor.Shape) (Reader, error) { return nil, nil }

func TestRegistry(t *testing.T) {
	// Use a kind number outside the real range so the test does not
	// disturb the global registry used elsewhere.
	const testKind = Kind(200)
	if _, err := Get(testKind); err == nil {
		t.Fatal("unregistered kind found")
	}
	Register(fakeFormat{kind: testKind})
	defer func() { // clean up the global registry
		regMu.Lock()
		delete(registry, testKind)
		regMu.Unlock()
	}()
	f, err := Get(testKind)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind() != testKind {
		t.Fatalf("Get returned kind %v", f.Kind())
	}
	all := Registered()
	for i := 1; i < len(all); i++ {
		if all[i-1].Kind() >= all[i].Kind() {
			t.Fatal("Registered not sorted by kind")
		}
	}
}
