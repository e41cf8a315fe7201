package wire

import (
	"fmt"
	"time"

	"sparseart/internal/buf"
	"sparseart/internal/core"
	"sparseart/internal/store"
	"sparseart/internal/tensor"
)

// Message payload codecs. Every request payload begins with a u64
// relative deadline (nanoseconds, 0 = none); the structs below carry
// it alongside the store-layer request types, which the protocol
// serializes directly — QueryRequest and KernelRequest on the wire are
// the same structs Store.Query and Store.Kernel execute. Every decoder
// ends with buf.Reader.End, so a payload with bytes left over after its
// message is refused, not half-read.

// putCoords serializes a coordinate buffer (dims, count, flat data).
func putCoords(w *buf.Writer, c *tensor.Coords) {
	w.U16(uint16(c.Dims()))
	w.U64(uint64(c.Len()))
	w.RawU64s(c.Flat())
}

// getCoords inverts putCoords.
func getCoords(r *buf.Reader) (*tensor.Coords, error) {
	dims := int(r.U16())
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if dims == 0 {
		return nil, fmt.Errorf("wire: zero-dim coords")
	}
	// Bound the count by the bytes present before multiplying, so a
	// count that wraps n*dims cannot pass for a short one.
	if n > uint64(r.Remaining())/8/uint64(dims) {
		return nil, fmt.Errorf("%w: %d %d-dim points exceed the payload", buf.ErrTruncated, n, dims)
	}
	return tensor.FromFlat(dims, r.RawU64s(n*uint64(dims)))
}

// count reads a u32 element count and refuses one the payload cannot
// hold at minLen bytes per element, before anything is allocated for it.
func count(r *buf.Reader, minLen int) (uint32, error) {
	n := r.U32()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if uint64(n)*uint64(minLen) > uint64(r.Remaining()) {
		return 0, fmt.Errorf("%w: %d elements of at least %d bytes exceed the payload", buf.ErrTruncated, n, minLen)
	}
	return n, nil
}

// putRegion serializes a region (dims, start, size).
func putRegion(w *buf.Writer, reg tensor.Region) {
	w.U16(uint16(reg.Dims()))
	w.RawU64s(reg.Start)
	w.RawU64s(reg.Size)
}

// getRegion inverts putRegion.
func getRegion(r *buf.Reader) (tensor.Region, error) {
	dims := uint64(r.U16())
	start := r.RawU64s(dims)
	size := r.RawU64s(dims)
	if err := r.Err(); err != nil {
		return tensor.Region{}, err
	}
	return tensor.Region{Start: start, Size: size}, nil
}

// Query is the MsgQuery request: a deadline and the exact
// store.QueryRequest the server executes.
type Query struct {
	Deadline time.Duration // relative; 0 = none
	Req      store.QueryRequest
}

// query payload flags.
const (
	queryHasProbe  = uint8(1 << 0)
	queryHasRegion = uint8(1 << 1)
)

// Encode serializes the request.
func (q *Query) Encode() []byte {
	w := buf.NewWriter(64)
	q.AppendTo(w)
	return w.Bytes()
}

// AppendTo appends the request's payload to w.
func (q *Query) AppendTo(w *buf.Writer) {
	w.U64(uint64(q.Deadline))
	var flags uint8
	if q.Req.Probe != nil {
		flags |= queryHasProbe
	}
	if q.Req.Region != nil {
		flags |= queryHasRegion
	}
	w.U8(flags)
	w.U64(uint64(q.Req.AsOf))
	w.U8(uint8(q.Req.Strategy))
	if q.Req.Probe != nil {
		putCoords(w, q.Req.Probe)
	}
	if q.Req.Region != nil {
		putRegion(w, *q.Req.Region)
	}
}

// DecodeQuery parses a MsgQuery payload.
func DecodeQuery(payload []byte) (*Query, error) {
	r := buf.NewReader(payload)
	q := &Query{Deadline: time.Duration(r.U64())}
	flags := r.U8()
	q.Req.AsOf = int64(r.U64())
	q.Req.Strategy = store.Strategy(r.U8())
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad query payload: %w", err)
	}
	if flags&^(queryHasProbe|queryHasRegion) != 0 {
		return nil, fmt.Errorf("wire: bad query payload: unknown flags %#x", flags)
	}
	if flags&queryHasProbe != 0 {
		probe, err := getCoords(r)
		if err != nil {
			return nil, fmt.Errorf("wire: bad query probe: %w", err)
		}
		q.Req.Probe = probe
	}
	if flags&queryHasRegion != 0 {
		reg, err := getRegion(r)
		if err != nil {
			return nil, fmt.Errorf("wire: bad query region: %w", err)
		}
		q.Req.Region = &reg
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad query payload: %w", err)
	}
	return q, nil
}

// putReadReport serializes a read report.
func putReadReport(w *buf.Writer, rep *store.ReadReport) {
	w.U64(uint64(rep.IO))
	w.U64(uint64(rep.Extract))
	w.U64(uint64(rep.Probe))
	w.U64(uint64(rep.Merge))
	w.U64(uint64(int64(rep.Fragments)))
	w.U64(uint64(int64(rep.Probed)))
	w.U64(uint64(int64(rep.Found)))
	w.U64(uint64(int64(rep.Scans)))
	w.U64(rep.Epoch)
	w.U64(uint64(int64(rep.Candidates)))
	w.U64(uint64(int64(rep.FilterSkipped)))
	w.U64(uint64(int64(rep.CacheHits)))
	w.U64(uint64(int64(rep.CacheMisses)))
	w.U64(uint64(rep.BytesRead))
	w.U64(uint64(int64(rep.Shards)))
}

// getReadReport inverts putReadReport into rep.
func getReadReport(r *buf.Reader, rep *store.ReadReport) {
	*rep = store.ReadReport{
		IO:            time.Duration(r.U64()),
		Extract:       time.Duration(r.U64()),
		Probe:         time.Duration(r.U64()),
		Merge:         time.Duration(r.U64()),
		Fragments:     int(int64(r.U64())),
		Probed:        int(int64(r.U64())),
		Found:         int(int64(r.U64())),
		Scans:         int(int64(r.U64())),
		Epoch:         r.U64(),
		Candidates:    int(int64(r.U64())),
		FilterSkipped: int(int64(r.U64())),
		CacheHits:     int(int64(r.U64())),
		CacheMisses:   int(int64(r.U64())),
		BytesRead:     int64(r.U64()),
		Shards:        int(int64(r.U64())),
	}
}

// QueryResult is the MsgQuery response.
type QueryResult struct {
	Result *store.Result
	Report *store.ReadReport
}

// Encode serializes the response.
func (q *QueryResult) Encode() []byte {
	w := buf.NewWriter(q.Size())
	q.AppendTo(w)
	return w.Bytes()
}

// Size is the response's encoded payload length.
func (q *QueryResult) Size() int {
	return 2 + 8 + 8*len(q.Result.Coords.Flat()) + 8 + 8*len(q.Result.Values) + readReportLen
}

// readReportLen is putReadReport's fixed output length.
const readReportLen = 15 * 8

// AppendTo appends the response's payload to w.
func (q *QueryResult) AppendTo(w *buf.Writer) {
	putCoords(w, q.Result.Coords)
	w.F64s(q.Result.Values)
	putReadReport(w, q.Report)
}

// DecodeQueryResult parses a MsgQuery response payload.
func DecodeQueryResult(payload []byte) (*QueryResult, error) {
	r := buf.NewReader(payload)
	coords, err := getCoords(r)
	if err != nil {
		return nil, fmt.Errorf("wire: bad query result: %w", err)
	}
	// One allocation holds the response, its result and its report.
	box := &struct {
		QueryResult
		res store.Result
		rep store.ReadReport
	}{}
	box.res = store.Result{Coords: coords, Values: r.F64s()}
	getReadReport(r, &box.rep)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad query result: %w", err)
	}
	if len(box.res.Values) != coords.Len() {
		return nil, fmt.Errorf("wire: query result has %d values for %d points", len(box.res.Values), coords.Len())
	}
	box.QueryResult = QueryResult{Result: &box.res, Report: &box.rep}
	return &box.QueryResult, nil
}

// AppendWriteReport is EncodeWriteReport appending to w.
func AppendWriteReport(w *buf.Writer, rep *store.WriteReport) {
	w.U64(uint64(rep.Build))
	w.U64(uint64(rep.Reorg))
	w.U64(uint64(rep.Write))
	w.U64(uint64(rep.Others))
	w.U64(uint64(rep.Bytes))
	w.U64(uint64(int64(rep.NNZ)))
	w.String32(rep.Name)
	w.U64(rep.Epoch)
}

// getWriteReport inverts AppendWriteReport.
func getWriteReport(r *buf.Reader) *store.WriteReport {
	return &store.WriteReport{
		Build:  time.Duration(r.U64()),
		Reorg:  time.Duration(r.U64()),
		Write:  time.Duration(r.U64()),
		Others: time.Duration(r.U64()),
		Bytes:  int64(r.U64()),
		NNZ:    int(int64(r.U64())),
		Name:   string(r.Bytes32()),
		Epoch:  r.U64(),
	}
}

// EncodeWriteReport serializes a single write report (the MsgDelete
// response).
func EncodeWriteReport(rep *store.WriteReport) []byte {
	w := buf.NewWriter(96)
	AppendWriteReport(w, rep)
	return w.Bytes()
}

// DecodeWriteReport parses a single write report payload.
func DecodeWriteReport(payload []byte) (*store.WriteReport, error) {
	r := buf.NewReader(payload)
	rep := getWriteReport(r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad write report: %w", err)
	}
	return rep, nil
}

// WriteBatch is the MsgWriteBatch request: the batched-ingest form.
type WriteBatch struct {
	Deadline time.Duration
	Workers  int
	Batches  []store.Batch
}

// Encode serializes the request.
func (m *WriteBatch) Encode() []byte {
	w := buf.NewWriter(m.Size())
	m.AppendTo(w)
	return w.Bytes()
}

// Size is the request's encoded payload length.
func (m *WriteBatch) Size() int {
	n := 8 + 8 + 4
	for _, b := range m.Batches {
		n += 2 + 8 + 8*len(b.Coords.Flat()) + 8 + 8*len(b.Values)
	}
	return n
}

// AppendTo appends the request's payload to w.
func (m *WriteBatch) AppendTo(w *buf.Writer) {
	w.U64(uint64(m.Deadline))
	w.U64(uint64(int64(m.Workers)))
	w.U32(uint32(len(m.Batches)))
	for _, b := range m.Batches {
		putCoords(w, b.Coords)
		w.F64s(b.Values)
	}
}

// DecodeWriteBatch parses a MsgWriteBatch payload.
func DecodeWriteBatch(payload []byte) (*WriteBatch, error) {
	r := buf.NewReader(payload)
	m := &WriteBatch{Deadline: time.Duration(r.U64()), Workers: int(int64(r.U64()))}
	n, err := count(r, 2+8+8) // dims, count, value count
	if err != nil {
		return nil, fmt.Errorf("wire: bad batch payload: %w", err)
	}
	m.Batches = make([]store.Batch, 0, n)
	for i := uint32(0); i < n; i++ {
		coords, err := getCoords(r)
		if err != nil {
			return nil, fmt.Errorf("wire: bad batch %d: %w", i, err)
		}
		values := r.F64s()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("wire: bad batch %d: %w", i, err)
		}
		if len(values) != coords.Len() {
			return nil, fmt.Errorf("wire: batch %d has %d values for %d points", i, len(values), coords.Len())
		}
		m.Batches = append(m.Batches, store.Batch{Coords: coords, Values: values})
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad batch payload: %w", err)
	}
	return m, nil
}

// EncodeWriteReports serializes the MsgWriteBatch response.
func EncodeWriteReports(reps []*store.WriteReport) []byte {
	w := buf.NewWriter(96 * (1 + len(reps)))
	AppendWriteReports(w, reps)
	return w.Bytes()
}

// AppendWriteReports is EncodeWriteReports appending to w.
func AppendWriteReports(w *buf.Writer, reps []*store.WriteReport) {
	w.U32(uint32(len(reps)))
	for _, rep := range reps {
		AppendWriteReport(w, rep)
	}
}

// DecodeWriteReports parses a MsgWriteBatch response payload.
func DecodeWriteReports(payload []byte) ([]*store.WriteReport, error) {
	r := buf.NewReader(payload)
	n, err := count(r, 7*8+4) // seven u64 fields and the name's length
	if err != nil {
		return nil, fmt.Errorf("wire: bad report list: %w", err)
	}
	reps := make([]*store.WriteReport, 0, n)
	for i := uint32(0); i < n; i++ {
		reps = append(reps, getWriteReport(r))
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad report list: %w", err)
	}
	return reps, nil
}

// Delete is the MsgDelete request: a region tombstone.
type Delete struct {
	Deadline time.Duration
	Region   tensor.Region
}

// Encode serializes the request.
func (m *Delete) Encode() []byte {
	w := buf.NewWriter(64)
	m.AppendTo(w)
	return w.Bytes()
}

// AppendTo appends the request's payload to w.
func (m *Delete) AppendTo(w *buf.Writer) {
	w.U64(uint64(m.Deadline))
	putRegion(w, m.Region)
}

// DecodeDelete parses a MsgDelete payload.
func DecodeDelete(payload []byte) (*Delete, error) {
	r := buf.NewReader(payload)
	m := &Delete{Deadline: time.Duration(r.U64())}
	reg, err := getRegion(r)
	if err == nil {
		err = r.End()
	}
	if err != nil {
		return nil, fmt.Errorf("wire: bad delete payload: %w", err)
	}
	m.Region = reg
	return m, nil
}

// Kernel is the MsgKernel request: the exact store.KernelRequest the
// server executes.
type Kernel struct {
	Deadline time.Duration
	Req      store.KernelRequest
}

// Encode serializes the request.
func (m *Kernel) Encode() []byte {
	w := buf.NewWriter(64 + 8*len(m.Req.Vec))
	m.AppendTo(w)
	return w.Bytes()
}

// AppendTo appends the request's payload to w.
func (m *Kernel) AppendTo(w *buf.Writer) {
	w.U64(uint64(m.Deadline))
	w.U8(uint8(m.Req.Op))
	w.U64(uint64(int64(m.Req.Mode)))
	w.F64s(m.Req.Vec)
	if m.Req.Region != nil {
		w.U8(1)
		putRegion(w, *m.Req.Region)
	} else {
		w.U8(0)
	}
}

// DecodeKernel parses a MsgKernel payload.
func DecodeKernel(payload []byte) (*Kernel, error) {
	r := buf.NewReader(payload)
	m := &Kernel{Deadline: time.Duration(r.U64())}
	m.Req.Op = store.KernelOp(r.U8())
	m.Req.Mode = int(int64(r.U64()))
	m.Req.Vec = r.F64s()
	hasRegion := r.U8()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("wire: bad kernel payload: %w", err)
	}
	if hasRegion > 1 {
		return nil, fmt.Errorf("wire: bad kernel payload: region marker %d", hasRegion)
	}
	if hasRegion != 0 {
		reg, err := getRegion(r)
		if err != nil {
			return nil, fmt.Errorf("wire: bad kernel region: %w", err)
		}
		m.Req.Region = &reg
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad kernel payload: %w", err)
	}
	return m, nil
}

// putPushReport serializes a push-down report.
func putPushReport(w *buf.Writer, rep *store.PushReport) {
	w.U64(uint64(int64(rep.Fragments)))
	w.U64(uint64(int64(rep.Skipped)))
	w.U64(uint64(rep.Cells))
	w.U64(uint64(rep.Shadowed))
	w.U64(uint64(rep.Dead))
	w.U64(rep.Epoch)
}

// getPushReport inverts putPushReport.
func getPushReport(r *buf.Reader) *store.PushReport {
	return &store.PushReport{
		Fragments: int(int64(r.U64())),
		Skipped:   int(int64(r.U64())),
		Cells:     int64(r.U64()),
		Shadowed:  int64(r.U64()),
		Dead:      int64(r.U64()),
		Epoch:     r.U64(),
	}
}

// EncodeKernelResult serializes the MsgKernel response.
func EncodeKernelResult(res *store.KernelResult) []byte {
	w := buf.NewWriter(96 + 8*len(res.Values))
	AppendKernelResult(w, res)
	return w.Bytes()
}

// AppendKernelResult is EncodeKernelResult appending to w.
func AppendKernelResult(w *buf.Writer, res *store.KernelResult) {
	w.F64s(res.Values)
	w.U64s(res.Shape)
	putPushReport(w, res.Report)
}

// DecodeKernelResult parses a MsgKernel response payload.
func DecodeKernelResult(payload []byte) (*store.KernelResult, error) {
	r := buf.NewReader(payload)
	res := &store.KernelResult{Values: r.F64s()}
	if shape := r.U64s(); len(shape) > 0 {
		res.Shape = tensor.Shape(shape)
	}
	res.Report = getPushReport(r)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad kernel result: %w", err)
	}
	return res, nil
}

// Info describes the backend a server exposes — the MsgInfo response.
type Info struct {
	Kind      core.Kind
	Shape     tensor.Shape
	Tile      tensor.Shape // nil for a flat (untiled) store
	Fragments uint64       // live fragments (summed over tiles)
	Epoch     uint64       // manifest epoch (summed over tiles/shards)
	Tiles     uint32       // materialized tiles (0 for a flat store)
}

// Encode serializes the response.
func (m *Info) Encode() []byte {
	w := buf.NewWriter(64)
	m.AppendTo(w)
	return w.Bytes()
}

// AppendTo appends the response's payload to w.
func (m *Info) AppendTo(w *buf.Writer) {
	w.U8(uint8(m.Kind))
	w.U64s(m.Shape)
	w.U64s(m.Tile)
	w.U64(m.Fragments)
	w.U64(m.Epoch)
	w.U32(m.Tiles)
}

// DecodeInfo parses a MsgInfo response payload.
func DecodeInfo(payload []byte) (*Info, error) {
	r := buf.NewReader(payload)
	m := &Info{Kind: core.Kind(r.U8())}
	m.Shape = tensor.Shape(r.U64s())
	if tile := r.U64s(); len(tile) > 0 {
		m.Tile = tensor.Shape(tile)
	}
	m.Fragments = r.U64()
	m.Epoch = r.U64()
	m.Tiles = r.U32()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("wire: bad info payload: %w", err)
	}
	return m, nil
}

// EncodeDeadline serializes the deadline-only requests (MsgInfo,
// MsgObs, MsgPing).
func EncodeDeadline(d time.Duration) []byte {
	w := buf.NewWriter(8)
	AppendDeadline(w, d)
	return w.Bytes()
}

// AppendDeadline is EncodeDeadline appending to w.
func AppendDeadline(w *buf.Writer, d time.Duration) { w.U64(uint64(d)) }

// DecodeDeadline parses a deadline-only request payload. An empty
// payload means no deadline (MsgPing).
func DecodeDeadline(payload []byte) (time.Duration, error) {
	if len(payload) == 0 {
		return 0, nil
	}
	r := buf.NewReader(payload)
	d := time.Duration(r.U64())
	if err := r.End(); err != nil {
		return 0, fmt.Errorf("wire: bad deadline payload: %w", err)
	}
	return d, nil
}
