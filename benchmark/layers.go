package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"sparseart/internal/core"
	"sparseart/internal/fragment"
	"sparseart/internal/serve"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
	"sparseart/internal/wire"
)

// This file measures single layers by calling them directly, with the
// workload's own messages and fragments as inputs: the wire codec on a
// bytes.Buffer, a hop against a backend that does nothing, the
// fragment container, and each organization's build, probe and scan.

// timeIt runs fn repeatedly for about budget (at least min times) and
// returns the mean time and allocations of one call. Budgets are
// multiples of the run's micro unit (20 ms when measuring; the smoke
// test shrinks it).
func timeIt(budget time.Duration, min int, fn func()) (ns, allocs float64) {
	fn() // page in code and pools
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	start := time.Now()
	n := 0
	for n < min || time.Since(start) < budget {
		fn()
		n++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(el) / float64(n), float64(ms.Mallocs-before) / float64(n)
}

// wireSample is one request and its reply as the workload's client and
// server exchange them.
type wireSample struct {
	reqType        uint8
	encReq, encRsp func() []byte
	decReq, decRsp func([]byte) error
}

// codecCost times a message through everything the wire package does
// to it on one hop: encode, frame out, frame in, decode.
func codecCost(unit time.Duration, typ uint8, enc func() []byte, dec func([]byte) error) (ns, allocs float64, size int, err error) {
	var b bytes.Buffer
	ns, allocs = timeIt(3*unit, 10, func() {
		b.Reset()
		payload := enc()
		size = len(payload)
		if e := wire.WriteFrame(&b, typ, 1, payload); e != nil {
			err = e
			return
		}
		_, _, got, e := wire.ReadFrame(&b)
		if e == nil {
			e = dec(got)
		}
		if e != nil {
			err = e
		}
	})
	return ns, allocs, size, err
}

func querySample(req store.QueryRequest, res *store.Result, rep *store.ReadReport) wireSample {
	return wireSample{
		reqType: wire.MsgQuery,
		encReq:  func() []byte { return (&wire.Query{Req: req}).Encode() },
		decReq:  func(p []byte) error { _, err := wire.DecodeQuery(p); return err },
		encRsp:  func() []byte { return (&wire.QueryResult{Result: res, Report: rep}).Encode() },
		decRsp:  func(p []byte) error { _, err := wire.DecodeQueryResult(p); return err },
	}
}

func (s *probeStream) wireSample() wireSample {
	return querySample(store.QueryRequest{Probe: s.probe, AsOf: store.AsOfLatest}, s.res, s.rep)
}

func (s *regionStream) wireSample() wireSample {
	return querySample(store.QueryRequest{Region: &s.region, AsOf: store.AsOfLatest, Strategy: store.StrategyAuto}, s.res, s.rep)
}

func (s *kernelStream) wireSample() wireSample {
	req := store.KernelRequest{Op: store.KernelSumRegion, Region: &s.region}
	return wireSample{
		reqType: wire.MsgKernel,
		encReq:  func() []byte { return (&wire.Kernel{Req: req}).Encode() },
		decReq:  func(p []byte) error { _, err := wire.DecodeKernel(p); return err },
		encRsp:  func() []byte { return wire.EncodeKernelResult(s.out) },
		decRsp:  func(p []byte) error { _, err := wire.DecodeKernelResult(p); return err },
	}
}

// wireSample of the writer is always a WriteBatch, the common call;
// if the last call was a delete the batches are those of the one before.
func (s *ingestStream) wireSample() wireSample {
	reps := s.reps
	return wireSample{
		reqType: wire.MsgWriteBatch,
		encReq:  func() []byte { return (&wire.WriteBatch{Batches: s.batches}).Encode() },
		decReq:  func(p []byte) error { _, err := wire.DecodeWriteBatch(p); return err },
		encRsp:  func() []byte { return wire.EncodeWriteReports(reps) },
		decRsp:  func(p []byte) error { _, err := wire.DecodeWriteReports(p); return err },
	}
}

// wireMetrics fills the wire.* rows from the workload's last exchange
// and fits the reply codec's cost per point over three result sizes cut
// from points.
func wireMetrics(unit time.Duration, ws wireSample, points *tensor.Coords, out map[string]float64) error {
	reqNs, reqAllocs, reqSize, err := codecCost(unit, ws.reqType, ws.encReq, ws.decReq)
	if err != nil {
		return fmt.Errorf("request codec: %w", err)
	}
	rspNs, rspAllocs, rspSize, err := codecCost(unit, wire.MsgOK, ws.encRsp, ws.decRsp)
	if err != nil {
		return fmt.Errorf("reply codec: %w", err)
	}
	const frameHeader = 4 + 1 + 8
	out["wire.req_codec_us"] = reqNs / 1e3
	out["wire.resp_codec_us"] = rspNs / 1e3
	out["wire.allocs_per_msg"] = (reqAllocs + rspAllocs) / 2
	out["wire.req_bytes"] = float64(reqSize + frameHeader)
	out["wire.resp_bytes"] = float64(rspSize + frameHeader)

	var xs, ys []float64
	for _, n := range []int{1, 2400, 65000} {
		if n > points.Len() {
			n = points.Len()
		}
		c, _ := tensor.FromFlat(points.Dims(), points.Flat()[:n*points.Dims()]) // a whole number of points by construction
		s := querySample(store.QueryRequest{}, &store.Result{Coords: c, Values: make([]float64, n)}, &store.ReadReport{})
		ns, _, _, err := codecCost(unit, wire.MsgOK, s.encRsp, s.decRsp)
		if err != nil {
			return fmt.Errorf("reply codec at %d points: %w", n, err)
		}
		xs, ys = append(xs, float64(n)), append(ys, ns)
	}
	out["wire.resp_codec_ns_per_point"] = fitSlope(xs, ys)
	return nil
}

// nullHop measures a round trip client → server over loopback against
// a backend that returns a canned one-point reply.
func nullHop(unit time.Duration, dims int, out map[string]float64) error {
	f := &fleet{}
	srv := serve.NewServer(newNullBackend(dims), serve.Config{})
	addr, err := f.listen(srv, 0)
	if err != nil {
		return err
	}
	defer func() {
		_ = srv.Close()
		f.serving.Wait()
	}()
	cl, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	probe := tensor.NewCoords(dims, 1)
	probe.Append(make([]uint64, dims)...)
	req := store.QueryRequest{Probe: probe, AsOf: store.AsOfLatest}
	ctx := context.Background()
	ns, allocs := timeIt(10*unit, 200, func() {
		if _, _, e := cl.Query(ctx, req); e != nil {
			err = e
		}
	})
	out["serve.null_hop_us"] = ns / 1e3
	out["serve.null_hop_allocs"] = allocs
	return err
}

// fragmentFiles returns up to max fragment files under dir, the
// largest first, so that the sample is the same set on every run of a
// seed.
func fragmentFiles(dir string, max int) ([]string, error) {
	type file struct {
		path string
		size int64
	}
	var files []file
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasPrefix(d.Name(), "frag-") {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		files = append(files, file{p, info.Size()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].size != files[j].size {
			return files[i].size > files[j].size
		}
		return files[i].path < files[j].path
	})
	if len(files) > max {
		files = files[:max]
	}
	paths := make([]string, len(files))
	for i, f := range files {
		paths[i] = f.path
	}
	return paths, nil
}

// fragmentMetrics opens and re-encodes a sample of the workload's own
// fragment files and returns the largest one decoded, for coreMetrics.
func fragmentMetrics(unit time.Duration, dir string, out map[string]float64) (*fragment.Fragment, error) {
	paths, err := fragmentFiles(dir, 8)
	if err != nil {
		return nil, err
	}
	var openNs, encNs, bytesTotal, nnzTotal, opened float64
	var largest *fragment.Fragment
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var frag *fragment.Fragment
		ns, _ := timeIt(unit/2, 3, func() {
			l, e := fragment.OpenAt(bytes.NewReader(data), int64(len(data)))
			if e == nil {
				frag, e = l.Materialize()
			}
			if e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", p, err)
		}
		if frag.NNZ == 0 {
			continue
		}
		openNs += ns
		opened++
		ns, _ = timeIt(unit/2, 3, func() {
			if _, e := fragment.Encode(frag); e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", p, err)
		}
		encNs += ns
		bytesTotal += float64(len(data))
		nnzTotal += float64(frag.NNZ)
		if largest == nil {
			largest = frag
		}
	}
	if largest == nil {
		return nil, fmt.Errorf("no data fragments under %s", dir)
	}
	out["fragment.open_us"] = openNs / opened / 1e3
	out["fragment.encode_us_per_knnz"] = encNs / 1e3 / (nnzTotal / 1e3)
	out["fragment.bytes_per_nnz"] = bytesTotal / nnzTotal
	return largest, nil
}

// coreMetrics rebuilds one of the workload's fragments in each of the
// paper's five organizations and times build, point probe and full
// scan: Table I measured on this workload's data.
func coreMetrics(unit time.Duration, frag *fragment.Fragment, out map[string]float64) error {
	src, err := core.Get(frag.Kind)
	if err != nil {
		return err
	}
	rd, err := src.Open(frag.Payload, frag.Shape)
	if err != nil {
		return err
	}
	it, ok := rd.(core.Iterator)
	if !ok {
		return fmt.Errorf("%v reader cannot iterate", frag.Kind)
	}
	coords := tensor.NewCoords(frag.Shape.Dims(), rd.NNZ())
	it.Each(func(p []uint64, _ int) bool { coords.Append(p...); return true })
	n := coords.Len()
	// Probes alternate stored points with their neighbours (mostly empty).
	probes := tensor.NewCoords(coords.Dims(), 256)
	for i := 0; i < 128; i++ {
		p := coords.At(i * n / 128)
		probes.Append(p...)
		q := append([]uint64(nil), p...)
		q[len(q)-1] = (q[len(q)-1] + 1) % frag.Shape[len(q)-1]
		probes.Append(q...)
	}
	for _, ck := range coreKinds {
		name := ck.name
		f, err := core.Get(ck.kind)
		if err != nil {
			return err
		}
		var built *core.BuildResult
		ns, _ := timeIt(unit, 2, func() {
			if built, err = f.Build(coords, frag.Shape); err != nil {
				return
			}
		})
		if err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
		out["core."+name+".build_us_per_knnz"] = ns / 1e3 / (float64(n) / 1e3)
		reader, err := f.Open(built.Payload, frag.Shape)
		if err != nil {
			return fmt.Errorf("open %s: %w", name, err)
		}
		hits := 0
		ns, _ = timeIt(unit, 2, func() {
			hits = 0
			for i := 0; i < probes.Len(); i++ {
				if _, ok := reader.Lookup(probes.At(i)); ok {
					hits++
				}
			}
		})
		if hits < probes.Len()/2 {
			return fmt.Errorf("%s found %d of %d stored probes", name, hits, probes.Len()/2)
		}
		out["core."+name+".probe_ns"] = ns / float64(probes.Len())
		scan, ok := reader.(core.Iterator)
		if !ok {
			return fmt.Errorf("%s reader cannot iterate", name)
		}
		seen := 0
		ns, _ = timeIt(unit, 2, func() {
			seen = 0
			scan.Each(func([]uint64, int) bool { seen++; return true })
		})
		if seen != n {
			return fmt.Errorf("%s scanned %d of %d points", name, seen, n)
		}
		out["core."+name+".scan_ns_per_nnz"] = ns / float64(n)
	}
	return nil
}
