package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sparseart/internal/fsim"
)

// One request whose scatter children overlap: the router fans out to
// two shards that run side by side, each with file-system time inside.
//
//	e2e     0 ............................................ 1000
//	router     100 ................................ 900
//	shard0         200 ........... 600
//	shard1             300 ................ 800
//	fs0                    350..450
//	fs1                        400 ...... 550   700..750
func overlappingRequest(req uint64) []span {
	return []span{
		{Name: "e2e", Start: 0, End: 1000, Req: req, Level: levelE2E, Shard: -1},
		{Name: "query", Start: 100, End: 900, Req: req, Level: levelRouter, Shard: -1},
		{Name: "query", Start: 200, End: 600, Req: req, Level: levelShard, Shard: 0},
		{Name: "query", Start: 300, End: 800, Req: req, Level: levelShard, Shard: 1},
		{Name: "readat", Start: 350, End: 450, Req: req, Level: levelFS, Shard: 0},
		{Name: "readat", Start: 400, End: 550, Req: req, Level: levelFS, Shard: 1},
		{Name: "readat", Start: 700, End: 750, Req: req, Level: levelFS, Shard: 1},
	}
}

func TestBreakdownWithOverlappingScatterChildren(t *testing.T) {
	spans := overlappingRequest(7)
	// Background work and a request that never got its e2e span must
	// not leak into any request's budget.
	spans = append(spans,
		span{Name: "write", Start: 500, End: 900, Req: 0, Level: levelFS, Shard: 0},
		span{Name: "query", Start: 0, End: 50, Req: 9, Level: levelRouter, Shard: -1},
	)
	bds := breakdowns(spans)
	if len(bds) != 1 {
		t.Fatalf("%d breakdowns, want 1", len(bds))
	}
	b := bds[0]
	// fs union: [350,550) + [700,750) = 250. shard union: [200,800) = 600.
	want := [levelCount]int64{
		levelE2E:    1000 - 800, // outside the router span
		levelRouter: 800 - 600,  // router span minus the union of its shard spans
		levelShard:  600 - 250,  // shard union minus the file-system time inside it
		levelFS:     250,
	}
	if b.Self != want {
		t.Errorf("self times %v, want %v", b.Self, want)
	}
	var sum int64
	for _, s := range b.Self {
		sum += s
	}
	if sum != b.E2E || b.E2E != 1000 {
		t.Errorf("rows sum to %d, e2e is %d: they must agree exactly", sum, b.E2E)
	}
	if b.Shards != 2 || b.Op != "query" {
		t.Errorf("fan-out %d op %q", b.Shards, b.Op)
	}
	// Per shard span: its own length minus its own file-system time.
	if len(b.ShardSelf) != 2 || b.ShardSelf[0] != 400-100 || b.ShardSelf[1] != 500-200 {
		t.Errorf("shard self times %v, want [300 300]", b.ShardSelf)
	}
}

func TestChromeTraceIsValidJSONAndCapped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, overlappingRequest(1), 5); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Ts   float64
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("%d events, want the cap of 5", len(doc.TraceEvents))
	}
	if ev := doc.TraceEvents[1]; ev.Ph != "X" || ev.Ts != 0.1 || ev.Dur != 0.8 || ev.Args["level"] != "router" {
		t.Errorf("router event %+v", ev)
	}
}

// timedFS must pass every call through and count it the way the
// file system underneath does: the same ops and bytes fsim.SimFS books.
func TestTimedFSPassesThroughAndCountsLikeSimFS(t *testing.T) {
	sim := fsim.NewPerlmutterSim()
	rec := newRecorder()
	rec.on.Store(true)
	owner := &timedBackend{rec: rec, level: levelShard}
	tfs := newTimedFS(sim, rec, 0)
	tfs.owner = owner

	if err := tfs.WriteFile("a/one", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := tfs.Append("a/log", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := tfs.Append("a/log", []byte("defg")); err != nil {
		t.Fatal(err)
	}
	if data, err := tfs.ReadFile("a/log"); err != nil || string(data) != "abcdefg" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	// From here on a request is open on the shard.
	owner.open.Add(1)
	rec.req.Store(42)
	f, err := tfs.Open("a/one")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 10 {
		t.Errorf("Size = %d", f.Size())
	}
	buf := make([]byte, 4)
	if n, err := f.ReadAt(buf, 3); err != nil || n != 4 || string(buf) != "3456" {
		t.Fatalf("ReadAt = %d %q %v", n, buf, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	owner.open.Add(-1)
	if names, err := tfs.List("a/"); err != nil || len(names) != 2 {
		t.Fatalf("List = %v, %v", names, err)
	}
	if n, err := tfs.Size("a/one"); err != nil || n != 10 {
		t.Fatalf("Size = %d, %v", n, err)
	}
	if err := tfs.Remove("a/log"); err != nil {
		t.Fatal(err)
	}

	got, want := tfs.counts(), sim.Stats()
	if got.WriteOps != want.WriteOps || got.ReadOps != want.ReadOps || got.BytesWritten != want.BytesWritten || got.BytesRead != want.BytesRead {
		t.Errorf("timedFS %+v, SimFS %+v", got, want)
	}
	if got.MetaOps != want.MetaOps {
		t.Errorf("meta ops %d, SimFS %d", got.MetaOps, want.MetaOps)
	}
	if got.Opens != 1 || got.WriteOps != 3 || got.BytesWritten != 17 || got.ReadOps != 2 || got.BytesRead != 11 {
		t.Errorf("counts %+v", got)
	}

	if _, err := tfs.Open("a/log"); err == nil {
		t.Error("Open of a removed file succeeded: errors must pass through too")
	}

	// Spans: calls made while the shard has a request open carry its
	// number, the others are background work.
	inReq := 0
	for _, s := range rec.take() {
		if s.Level != levelFS || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
		if s.Req == 42 {
			inReq++
		} else if s.Req != 0 {
			t.Errorf("span with request %d", s.Req)
		}
	}
	if inReq != 2 { // the Open and the ReadAt
		t.Errorf("%d spans attributed to the request, want 2", inReq)
	}
}
