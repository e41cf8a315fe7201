#!/usr/bin/env bash
# ci.sh — the full verification gate: formatting, vet, build, a doc
# check, the test suite under the race detector, and a short fuzz smoke
# of every fuzz target. CI invokes this script (see
# .github/workflows/ci.yml); run it locally before sending a change.
#
# Usage: scripts/ci.sh [fuzz-seconds]
#   fuzz-seconds  per-target fuzz budget (default 10; 0 skips fuzzing)
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZ_SECONDS="${1:-10}"

# step NAME opens a step and prints the wall seconds the previous one
# took, so the next change to this script argues from a measurement.
STEP_NAME=""
STEP_T0=$SECONDS
step() {
    if [ -n "$STEP_NAME" ]; then
        echo "    [$((SECONDS - STEP_T0))s] $STEP_NAME"
    fi
    STEP_NAME="$1"
    STEP_T0=$SECONDS
    echo "==> $1"
}

# The tree carries source only: a build product committed by mistake
# (a root `go build ./cmd/sparsestore` leaves a 10 MB ELF, and one was
# tracked once) fails here. .gitignore lists the cmd/* names; this step
# catches any other name. `file` is not assumed: the check reads each
# tracked file's first four bytes.
step "tracked files (no ELF build product in git)"
elf=""
while IFS= read -r -d '' f; do
    if [ -f "$f" ] && [ "$(head -c4 -- "$f" | od -An -tx1 | tr -d ' \n')" = 7f454c46 ]; then
        elf="$elf $f"
    fi
done < <(git ls-files -z)
if [ -n "$elf" ]; then
    echo "git tracks ELF build products:$elf — git rm them (.gitignore lists the cmd/* binaries)" >&2
    exit 1
fi

step "gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "files need gofmt:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet"
go vet ./...

step "go build"
go build ./...

# Doc check: every test, benchmark, example and fuzz function,
# internal/<pkg>.<Name> and .go path that README.md, DESIGN.md and
# docs/*.md name in backticks exists in the parsed tree, so a rename or a
# deletion cannot leave the docs pointing at nothing.
step "docs (backticked code references resolve; DESIGN.md size ratchet)"
go run ./scripts/checkdocs
# DESIGN.md describes HEAD, one section per layer; history lives in
# CHANGES.md. Its size may only fall: a change that rewrites its layers'
# sections to HEAD lowers DESIGN_MAX_BYTES to the new size.
DESIGN_MAX_BYTES=77811
design_bytes=$(wc -c < DESIGN.md)
echo "DESIGN.md: $design_bytes bytes (ceiling $DESIGN_MAX_BYTES)"
if [ "$design_bytes" -gt "$DESIGN_MAX_BYTES" ]; then
    echo "DESIGN.md grew past $DESIGN_MAX_BYTES bytes: rewrite the sections you touched to HEAD and move their history to CHANGES.md" >&2
    exit 1
fi

# Surface gate: Query/Kernel are the only read and compute entry points,
# so nothing superseded may linger behind a Deprecated: marker — delete
# it instead; and typed options and flags are the only configuration
# surface, so the library and the cmds never read the process
# environment; and Algorithm 3's WRITE exists once, so the store calls
# Format.Build in one place, encodes a fragment in one place and builds
# a key filter in one place (prepareBatch — Write, WriteBatch, the
# cross-tile ingest, compaction and Convert all go through it); and Algorithm 3's READ exists once, so a fragment
# is fetched from one place only (readFragment on the READ loop), a
# read runs its fragments on the caller's goroutine — internal/store
# starts goroutines for the ingest driver and background compaction
# and nothing else, so no per-request fragment pool comes back behind a
# knob — and internal/core offers one walk (Iterator.Each and
# RegionScanner.ScanRegion — no iter.Seq2 twin of them); and the tile
# grid is declared once (store.Tiling, internal/store/tiling.go: index,
# name, extent, clip, range, walk), so neither Store nor Router spells
# a tile name or index of its own, and the per-point name is appended
# digits, never fmt; and a Snapshot leaves the process in two encodings,
# one per kind of reader (Prometheus text for scrapers, the Snapshot
# JSON for the fleet, the CLI and the checks), so no OTLP encoder,
# interval reporter, /metrics.json endpoint or ?since= baseline ring
# comes back; and a span is recorded once — its histogram, plus the
# trace ring when sampled — so no second, registry-relative span
# timeline comes back; and both hops of a request frame through the pools, so
# the serving layer never reaches for the allocating frame and codec
# forms (ReadFrame, WriteFrame, Encode) that the benchmark and the tests
# keep; and an organization is a declaration (a coordinate remap and a
# list of levels, core.Decl), so internal/core builds, descends and
# walks once — one Lookup, one Each, one ScanRegion, one sort — and no
# format package carries a reader of its own; and a store's organization
# is fixed at Create, so Compact is the one consolidation and Convert,
# into a new store, the one way to change organization — no in-place
# re-organization, asynchronous compaction handle or second conversion
# entry point comes back, and the store does not consult the advisor;
# and the tiling is the spatial index — Store and the router find a
# request's tiles arithmetically, and a tile's view scans its fragments'
# boxes — so no spatial grid comes back below it; and a fragment's
# filters live in its manifest record only, so internal/fragment does
# not depend on internal/filter and a fragment file carries no filter;
# and a cold fragment load copies once, from the file into one aligned
# file buffer that the index and the values are views of, so unsafe
# lives in internal/buf alone and only the level parser (U64View, in
# internal/core/levels.go) and the fragment's values (F64View, in
# internal/fragment/fragment.go) take views — a view into a pooled
# buffer, such as a wire frame, would be overwritten by the next one;
# and a server executes requests on pooled workers that keep their
# grown stacks, so internal/serve starts a goroutine per listener, per
# connection, per worker (at most the in-flight window) and per shard
# of a router's fan-out — never one per request; and a tile is not a
# caller — an ingest answers one report per batch on every layer, so no
# WriteBatchContext takes a per-fragment callback and no collector
# (collectReports, collectBatch) folds fragments back into batches, and
# a read runs each tile's read and a kernel each tile's foldLive — a
# tile has no Query or Kernel — so a request is validated, spanned and
# slow-logged once; and every kernel, ScanLive and Convert is one fold
# over the tiles in global coordinates (Store.foldTiles), so no
# one-address-space refusal (oneSpace), per-tile kernelAt or routed
# kernel-op refusal comes back — only as-of reads stay refused on more
# than one tile; and there is one store type: a flat store is the one-tile case,
# so internal/store declares Query and Kernel on Store alone (Chunked,
# OpenChunked and serve.ChunkedBackend are aliases the frozen benchmark
# names) and internal/serve adapts a store through StoreBackend alone; and each number the paper reproduction
# records is measured once, by internal/bench under sparsebench, so the
# root package carries no testing.B twin of a table, figure or ablation;
# and every region read is planned — the zero Strategy runs Table I's
# planner and the paper's probe-every-cell read is a probe list — so no
# StrategyDefault comes back, and the wire carries no strategy: non-test
# internal/wire and internal/serve name one only where Client.Query
# refuses a forced plan before sending.
# The numbers printed are the baseline the next simplicity change is
# measured against.
step "surface (no Deprecated: markers; no environment reads; one Build, one Encode, one key filter; one fetch, inline reads, one walk; one tiling; two telemetry encodings; one span record; pooled framing; one descent and walk in core; one Compact, one Convert; no spatial grid below the tiling; no filter in a fragment file; one unsafe view; pooled request execution; one report per batch, one record per request; kernels on any tiling; one store type; one harness for the paper's numbers; planned reads; exported methods; options; benchmarks; code lines)"
if grep -rn 'Deprecated:' --include='*.go' --exclude='*_test.go' internal ./*.go; then
    echo "Deprecated: markers remain in non-test Go (delete what they mark)" >&2
    exit 1
fi
if grep -rnE 'SPARSEART_|os\.Getenv' --include='*.go' --exclude='*_test.go' internal cmd ./*.go; then
    echo "non-test Go reads the environment (configure through an option or a flag)" >&2
    exit 1
fi
store_src=$(find internal/store -maxdepth 1 -name '*.go' ! -name '*_test.go')
builds=$(grep -hE '\.Build\(' $store_src | grep -cvE 'filter\.Build\(|^\s*//' || true)
encodes=$(grep -hE 'fragment\.(AppendEncode|Encode)\(' $store_src | grep -cvE '^\s*//' || true)
if [ "$builds" -ne 1 ] || [ "$encodes" -ne 1 ]; then
    echo "internal/store calls Format.Build in $builds places and encodes a fragment in $encodes (want 1 and 1: go through prepareBatch)" >&2
    exit 1
fi
keybuilds=$(grep -hE 'BuildKeys\(' $store_src | grep -cvE '^\s*//' || true)
keyprep=$(sed -n '/^func (s \*tile) prepareBatch(/,/^}/p' internal/store/ingest.go | grep -cE 'filter\.BuildKeys\(' || true)
if [ "$keybuilds" -ne 1 ] || [ "$keyprep" -ne 1 ]; then
    echo "internal/store builds key filters in $keybuilds places, $keyprep of them in prepareBatch (want 1 and 1: every fragment's key filter comes from prepareBatch)" >&2
    exit 1
fi
fetches=$(grep -hE 'fetchFragment\(' $store_src | grep -cvE '^func |^\s*//' || true)
if [ "$fetches" -ne 1 ]; then
    echo "internal/store fetches a fragment from $fetches places (want 1: readFragment — read through readView)" >&2
    exit 1
fi
merge_sorts=$( (sed -n '/^func orderHits(/,/^}/p; /^func mergeHits(/,/^}/p' internal/store/tile.go
    sed -n '/^func MergeResults(/,/^}/p' internal/store/query.go) | grep -cE '[sS]ort[A-Z(.]' || true)
if [ "$merge_sorts" -ne 0 ]; then
    echo "mergeHits or MergeResults calls a sort (order hits by orderHits' radix pass; merge the parts, which are each in row-major order)" >&2
    exit 1
fi
store_spawns=$(grep -nE '^\s*go ' $store_src | sed -E 's/:[0-9]+:[[:space:]]*/: /' | sort)
want_store_spawns='internal/store/ingest.go: go func() {
internal/store/ingest.go: go func() {
internal/store/maintenance.go: go func() {'
if [ "$store_spawns" != "$want_store_spawns" ]; then
    echo "internal/store starts goroutines other than the ingest driver's (its prepare workers and feeder, ingest.go) and background compaction's (maintenance.go) — a read runs its fragments on the caller's goroutine:" >&2
    echo "$store_spawns" >&2
    exit 1
fi
if grep -rnE 'iter\.Seq2|\) Points\(\)|RegionPoints\(' --include='*.go' --exclude='*_test.go' internal/core; then
    echo "internal/core carries a second walk contract (range over Iterator.Each / RegionScanner.ScanRegion)" >&2
    exit 1
fi
if grep -rnE 'func (\([^)]*\) )?(tileKey|tileOf|tileIndexFromKey)\(|"-%d"' --include='*.go' --exclude='*_test.go' internal/store internal/serve; then
    echo "a tile name or index is spelled outside store.Tiling (use Index / AppendName / ParseName)" >&2
    exit 1
fi
if sed -n '/^import (/,/^)/p' internal/store/tiling.go | grep -q '"fmt"'; then
    echo "internal/store/tiling.go imports fmt (the per-point path appends digits)" >&2
    exit 1
fi
if grep -rnE 'OTLP|NewReporter|Obs-Snapshot-Id|"since"|"/metrics\.json"' --include='*.go' --exclude='*_test.go' .; then
    echo "non-test Go carries a third telemetry encoding or a delta protocol (Prometheus text and the Snapshot JSON are the two exports)" >&2
    exit 1
fi
# "traceEvents" in quotes is the Chrome trace_event container key.
if grep -rnE 'SpanEvent|SpanDrops|recordEvent|(^|[^"])traceEvents([^"]|$)|defaultTraceCap' --include='*.go' --exclude='*_test.go' .; then
    echo "non-test Go carries a second span timeline (a span records once: its histogram, and the trace ring when sampled)" >&2
    exit 1
fi
if grep -rnE 'wire\.(ReadFrame|WriteFrame|Encode[A-Za-z]*)\(|\.Encode\(\)' --include='*.go' --exclude='*_test.go' internal/serve; then
    echo "internal/serve frames a message through an allocating form (build it in wire.NewFrame with AppendTo / Append*, send it with wire.SendFrame, read with wire.FrameReader)" >&2
    exit 1
fi
core_src=$(find internal/core -name '*.go' ! -name '*_test.go')
for m in Lookup Each ScanRegion; do
    n=$(grep -hE "^func \([^)]*\) $m\(" $core_src | wc -l)
    if [ "$n" -ne 1 ]; then
        echo "internal/core defines $m $n times (want 1: the level walk in internal/core/levels.go)" >&2
        exit 1
    fi
done
sorts=$(grep -hE 'psort\.[A-Z]' $core_src | grep -cvE '^\s*//' || true)
if [ "$sorts" -ne 1 ]; then
    echo "internal/core sorts in $sorts places (want 1: core.Build)" >&2
    exit 1
fi
if grep -nE '^func \([^)]*\) (Lookup|Each|ScanRegion)\(' internal/core/{coo,linearfmt,gcs,csf,bcoo}/*.go; then
    echo "a format package defines its own reader walk (declare a core.Decl instead)" >&2
    exit 1
fi
if grep -rnE '^func (\([^)]*\) )?(CompactTo|CompactAuto|CompactAsync|WithAutoReorg|ConvertStreamed|setOrg)\(' --include='*.go' --exclude='*_test.go' .; then
    echo "non-test Go re-organizes a store in place or adds a second compaction or conversion entry point (Compact consolidates; Convert writes a new store)" >&2
    exit 1
fi
if go list -deps ./internal/store | grep -qx 'sparseart/internal/advisor'; then
    echo "internal/store depends on internal/advisor (the organization is chosen before Create: sparsestore export | sparseadvise)" >&2
    exit 1
fi
if grep -rnE 'fragIndex|buildFragIndex|gridGeometry|decodeFragIndex|loadedIndex' --include='*.go' --exclude='*_test.go' .; then
    echo "non-test Go carries a spatial grid below the tiling (a view scans its fragments' boxes; a store that outgrows the scan is tiled)" >&2
    exit 1
fi
if go list -deps ./internal/fragment | grep -qx 'sparseart/internal/filter'; then
    echo "internal/fragment depends on internal/filter (a fragment's filters live in its manifest record, not in the fragment file)" >&2
    exit 1
fi
if grep -rlE '"unsafe"' --include='*.go' . | grep -v '^\./internal/buf/'; then
    echo "Go outside internal/buf imports unsafe (buf.Aligned, U64View and F64View are the one unsafe view)" >&2
    exit 1
fi
views=$(grep -rnoE '(U64View|F64View)\(' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/buf/' || true)
if echo "$views" | grep -vE '^(\./internal/core/levels\.go:[0-9]+:U64View|\./internal/fragment/fragment\.go:[0-9]+:F64View)\($|^$'; then
    echo "a buffer view is taken outside its one home (U64View in internal/core/levels.go, F64View in internal/fragment/fragment.go): a view into a pooled buffer is overwritten when the buffer is reused" >&2
    exit 1
fi
spawns=$(grep -nE '^\s*go ' $(find internal/serve -maxdepth 1 -name '*.go' ! -name '*_test.go') |
    sed -E 's/:[0-9]+:[[:space:]]*/: /' | sort)
want_spawns='internal/serve/client.go: go c.readLoop()
internal/serve/router.go: go func(k, i int) {
internal/serve/server.go: go func() {
internal/serve/server.go: go s.serveConn(conn)
internal/serve/server.go: go s.work(j)'
if [ "$spawns" != "$want_spawns" ]; then
    echo "internal/serve starts goroutines other than its listener closer, connection readers, workers and router fan-out (a request runs on a worker: Server.dispatch):" >&2
    echo "$spawns" >&2
    exit 1
fi
if grep -rnE '^func (\([^)]*\) )?WriteBatchContext\([^)]*func\(' --include='*.go' .; then
    echo "a WriteBatchContext takes a function parameter (an ingest returns one report per batch; there is no per-fragment callback)" >&2
    exit 1
fi
if grep -rnwE 'collectReports|collectBatch' --include='*.go' .; then
    echo "a report collector is back (every layer's ingest returns one report per batch itself)" >&2
    exit 1
fi
query_types=$(grep -hoE '^func \([a-z]+ \*[A-Za-z]+\) (Query|Kernel)\(' $store_src | sed -E 's/^func \([a-z]+ \*([A-Za-z]+)\).*/\1/' | sort -u | tr '\n' ' ')
if [ "$query_types" != "Store " ]; then
    echo "internal/store declares Query or Kernel on types other than Store ($query_types): one store type, and a tile answers through its read and foldLive, so a request is validated, spanned and slow-logged once" >&2
    exit 1
fi
if grep -nE '^func \([a-z]+ \*(Store|tile)\) oneSpace\(|^func \([a-z]+ \*tile\) kernelAt\(' $store_src; then
    echo "internal/store refuses a kernel on more than one tile (oneSpace) or runs one per tile (tile.kernelAt): every kernel, ScanLive and Convert is one fold over the tiles, Store.foldTiles" >&2
    exit 1
fi
routed_refusals=$(grep -nE 'not supported on routed stores' $(find internal/serve -maxdepth 1 -name '*.go' ! -name '*_test.go') | grep -v 'as-of reads are not supported on routed stores' || true)
if [ -n "$routed_refusals" ]; then
    echo "internal/serve refuses a request the shards can answer (only as-of reads are refused on routed stores; a kernel's shard answers sum element by element):" >&2
    echo "$routed_refusals" >&2
    exit 1
fi
# The frozen benchmark names store.Chunked, store.OpenChunked and
# serve.ChunkedBackend: each stays, as an alias and nothing more.
aliases=$(grep -hE '^(type Chunked|(func|var) OpenChunked|(func|var) ChunkedBackend)\b' $store_src $(find internal/serve -maxdepth 1 -name '*.go' ! -name '*_test.go') || true)
want_aliases='type Chunked = Store
var OpenChunked = Open
var ChunkedBackend = StoreBackend'
if [ "$aliases" != "$want_aliases" ]; then
    echo "store.Chunked, store.OpenChunked or serve.ChunkedBackend is more than an alias of Store, Open or StoreBackend:" >&2
    echo "$aliases" >&2
    exit 1
fi
adapters=$(grep -hE '^func [A-Za-z]+\([a-z]+ \*store\.[A-Za-z]+\)|^type [A-Za-z]+ struct\{ *[a-z]+ \*store\.' $(find internal/serve -maxdepth 1 -name '*.go' ! -name '*_test.go') || true)
want_adapters='type storeBackend struct{ s *store.Store }
func StoreBackend(s *store.Store) Backend { return storeBackend{s} }'
if [ "$adapters" != "$want_adapters" ]; then
    echo "internal/serve adapts a store other than through StoreBackend (one store type, one adapter):" >&2
    echo "$adapters" >&2
    exit 1
fi
if grep -rnw 'StrategyDefault' --include='*.go' . || grep -nw 'StrategyDefault' README.md DESIGN.md docs/*.md; then
    echo "StrategyDefault is named (a region read is planned; the paper's probe-every-cell read is QueryRequest{Probe: region.Coords()})" >&2
    exit 1
fi
strategy_refs=$(grep -rnE 'Strategy' --include='*.go' --exclude='*_test.go' internal/wire internal/serve | sed -E 's/:[0-9]+:[[:space:]]*/: /')
if [ "$strategy_refs" != 'internal/serve/client.go: if req.Strategy != store.StrategyAuto {' ]; then
    echo "non-test internal/wire or internal/serve names a strategy other than Client.Query's refusal of a forced plan (the wire carries none; a served read is planned):" >&2
    echo "$strategy_refs" >&2
    exit 1
fi
if grep -nE '^func Benchmark' ./*_test.go; then
    echo "the root package declares a testing.B benchmark (internal/bench, run by sparsebench, is the one harness for the paper's tables, figures and ablations: add a study there)" >&2
    exit 1
fi
n=$(sed -n '/^type Backend interface {/,/^}/p' internal/serve/backend.go | grep -cE '^\s+[A-Z][A-Za-z]*\(')
echo "  methods of serve.Backend: $n"
n=$(grep -hE '^func \([a-z]+ \*Store\) [A-Z]' $store_src | wc -l)
echo "  exported methods of *Store: $n"
n=$(find internal/store -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 grep -hE '^func With[A-Z]' | wc -l)
echo "  store.With* options: $n"
n=$(grep -rhE '^func Benchmark' --include='*_test.go' . | wc -l)
echo "  func Benchmark, module-wide: $n"
lines=$(find internal/store internal/serve internal/wire -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat | grep -cvE '^\s*(//.*)?$')
echo "  non-blank non-comment lines, internal/{store,serve,wire}: $lines"
lines=$(find internal/obs -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -cvE '^\s*(//.*)?$')
echo "  non-blank non-comment lines, internal/obs/** (export and serve included): $lines"
echo "  non-blank non-comment lines per package tree:"
for pkg in internal/* cmd/* .; do
    depth=""
    [ "$pkg" = . ] && depth="-maxdepth 1"
    lines=$(find "$pkg" $depth -name '*.go' ! -name '*_test.go' -print0 |
        xargs -0 cat | grep -cvE '^\s*(//.*)?$')
    printf '    %-24s %6d\n' "$pkg" "$lines"
done

# The suite carries its own configuration matrix: the store's
# differential oracle, race hammer, crash sweeps and chunked ≡ flat
# tests each range over the option sets in storeConfigs
# (internal/store/helpers_test.go) — cache off, cache evicting on every
# insert, manifest log folded on every commit, never folded. A new
# behaviour-preserving option earns a row there, not a re-run here.
# TestPaperShapeReproduction runs the paper's whole small-scale matrix
# (116 s under -race) and starts no goroutine of its own — psort's
# parallel sort stays under -race through coretest's
# ParallelBuildEqualsSerial — so it runs once, without -race, in the
# paper-reproduction step below.
step "go test -race"
go test -race -skip '^TestPaperShapeReproduction$' ./...

# Race-hammer tier: readers, writers, a deleter, and a compactor pound
# one store per organization under the race detector while every result
# is differentially verified against an epoch-indexed oracle; and two
# writers race to create the same tiles of a chunked store — directly,
# and as clients of one served StoreBackend — beside region reads,
# probes, kernels and deletions. The suite above already runs both once
# at the default scale; this tier repeats them with more iterations
# (HAMMER_COUNT, default 3) so interleavings vary.
step "race hammer (concurrent serving, ${HAMMER_COUNT:-3} rounds)"
go test -race -run 'TestConcurrentHammer|TestNoMixedEpochReads|TestChunkedConcurrentTileCreation' \
    -count "${HAMMER_COUNT:-3}" ./internal/store/ ./internal/serve/

# Live-endpoint smoke: import a scratch store, serve its telemetry, and
# cross-check its two encodings end to end — /metrics through the strict
# Prometheus parser against /snapshot through obs.DecodeSnapshot, on the
# expected counter families. The -readall flag guarantees the scrape
# carries read-path counters and the cold load's cache miss to assert on.
step "serve smoke (live /metrics ≡ /snapshot cross-check)"
SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
SMOKE_PIDS=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; [ -n "$SMOKE_PIDS" ] && kill $SMOKE_PIDS 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
printf '# shape: 16 16\n1 2 10\n3 4 20\n5 6 30\n' > "$SMOKE_DIR/ds.txt"
go build -o "$SMOKE_DIR/sparsestore" ./cmd/sparsestore
"$SMOKE_DIR/sparsestore" import -dir "$SMOKE_DIR/store" -kind GCSR++ -in "$SMOKE_DIR/ds.txt"
"$SMOKE_DIR/sparsestore" serve -dir "$SMOKE_DIR/store" -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr" -readall &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve exited early" >&2; exit 1; }
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr" ] || { echo "serve never wrote its address" >&2; exit 1; }
go run ./scripts/checkmetrics -addr "$(cat "$SMOKE_DIR/addr")" \
    -expect fragcache.misses -expect store.read.count
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# Router smoke: boot three shard data servers (each a fresh chunked
# store), front them with sparserouter — everything at trace sampling
# 1.0 with the slow-query threshold at 0 (log every request) — and
# drive the wire-level differential workload (`sparsestore rpc`:
# batched writes, region read-back with exact per-point verification,
# SumAll cross-check, delete + re-verify) through the router under one
# sampled trace. Then validate both observability surfaces:
# checkmetrics cross-checks /metrics against /snapshot (the OnScrape
# hook absorbs every shard's obs snapshot, so the aggregate must carry
# both the router's scatter counters and the shards' store counters),
# and checktrace asserts the stitched Chrome trace follows the request
# across client, router, and shard processes with resolvable parent
# links, that every /debug/slowlog line parses with a cost breakdown,
# and that /trace?trace_id= serves the trace back.
step "router smoke (3 shards, scatter-gather rpc + fleet /metrics ≡ /snapshot + stitched trace)"
go build -o "$SMOKE_DIR/sparserouter" ./cmd/sparserouter
SHARD_ADDRS=""
for i in 0 1 2; do
    "$SMOKE_DIR/sparsestore" serve -dir "$SMOKE_DIR/shard$i" \
        -create CSF -shape 24,24 -tile 8,8 \
        -addr 127.0.0.1:0 -data-addr 127.0.0.1:0 \
        -data-addr-file "$SMOKE_DIR/shard$i.addr" \
        -trace-sample 1 -slowlog 0 &
    SMOKE_PIDS="$SMOKE_PIDS $!"
done
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        [ -s "$SMOKE_DIR/shard$i.addr" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/shard$i.addr" ] || { echo "shard $i never wrote its address" >&2; exit 1; }
    SHARD_ADDRS="$SHARD_ADDRS,$(cat "$SMOKE_DIR/shard$i.addr")"
done
"$SMOKE_DIR/sparserouter" -shards "${SHARD_ADDRS#,}" \
    -data-addr 127.0.0.1:0 -data-addr-file "$SMOKE_DIR/router.addr" \
    -metrics-addr 127.0.0.1:0 -metrics-addr-file "$SMOKE_DIR/router.metrics" \
    -trace-sample 1 -slowlog 0 &
SMOKE_PIDS="$SMOKE_PIDS $!"
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/router.addr" ] && [ -s "$SMOKE_DIR/router.metrics" ] && break
    sleep 0.1
done
[ -s "$SMOKE_DIR/router.addr" ] || { echo "router never wrote its address" >&2; exit 1; }
"$SMOKE_DIR/sparsestore" rpc -addr "$(cat "$SMOKE_DIR/router.addr")" -points 150 -batches 3 \
    -trace-out "$SMOKE_DIR/trace.json"
go run ./scripts/checkmetrics -addr "$(cat "$SMOKE_DIR/router.metrics")" \
    -expect router.scatter \
    -expect store.read.count -expect store.ingest.count
go run ./scripts/checktrace -file "$SMOKE_DIR/trace.json" \
    -addr "$(cat "$SMOKE_DIR/router.metrics")"
kill $SMOKE_PIDS 2>/dev/null || true
wait $SMOKE_PIDS 2>/dev/null || true
SMOKE_PIDS=""

# Examples: each examples/* program is a runnable walkthrough of the
# library surface. go build only compiles them; this step runs each one
# (in the scratch directory, about 2 s for all of them) and fails on a
# non-zero exit.
step "examples (run every examples/* program)"
for ex in examples/*/; do
    name=$(basename "$ex")
    go build -o "$SMOKE_DIR/example-$name" "./$ex"
    (cd "$SMOKE_DIR" && "./example-$name" > "example-$name.log" 2>&1) ||
        { cat "$SMOKE_DIR/example-$name.log" >&2; echo "example $name exited non-zero" >&2; exit 1; }
done

# The paper's qualitative findings over the small-scale matrix, the
# same runner sparsebench drives, without the race detector (see the
# race step).
step "paper reproduction (TestPaperShapeReproduction, without -race)"
go test -count=1 -run '^TestPaperShapeReproduction$' ./internal/bench

# Benchmark smoke and count-metric gate: benchmark/ is frozen to most
# changes (BENCHMARK.json lists it under paths) yet compiles and runs
# against internal/, so a change that stops it building or answering
# must fail here, not in the pipeline that runs it afterwards. One smoke
# suite (every workload, untraced then traced, at the 32-cube scale)
# runs into a temp file — it exits non-zero when a reply is wrong, and
# every printed failed count must be 0 — and the frozen program's
# -compare judges it against the committed BENCH_SMOKE.json. Only a
# `worse` row in a gated count metric fails the step; timing rows are
# printed and never gated (the VM drifts ±20 %). A metric stays gated
# only while its same-tree smoke spread is under half its bound
# (EXPERIMENTS.md, "One telemetry export per consumer"): rss_peak_mb
# (up to 29 %) and disk_bytes_per_user_byte (8.6 % on ingest_mixed,
# background-compaction timing) are left out for that. A change that
# moves a gated metric on purpose re-records BENCH_SMOKE.json with
# `go run ./benchmark -smoke -seed 1 -out BENCH_SMOKE.json` and says so.
GATED='allocs_per_op|alloc_kb_per_op'
step "benchmark smoke + count gate (go vet ./benchmark; smoke suite vs BENCH_SMOKE.json, gated: ${GATED//|/ })"
go vet ./benchmark
go build -o "$SMOKE_DIR/benchmark" ./benchmark
"$SMOKE_DIR/benchmark" -smoke -seed 1 -out "$SMOKE_DIR/smoke.json" > "$SMOKE_DIR/smoke.log" ||
    { cat "$SMOKE_DIR/smoke.log" >&2; echo "benchmark smoke suite failed" >&2; exit 1; }
grep -E '^(== |   attempted )' "$SMOKE_DIR/smoke.log"
if grep -E '^   attempted ' "$SMOKE_DIR/smoke.log" | grep -vqE '^   attempted [0-9]+  failed 0 '; then
    echo "benchmark smoke: a workload reports failed operations" >&2
    exit 1
fi
cmp=$("$SMOKE_DIR/benchmark" -compare BENCH_SMOKE.json "$SMOKE_DIR/smoke.json" || true)
echo "$cmp"
if echo "$cmp" | awk -v gated="^($GATED)\$" '$2 ~ gated && $NF == "worse" { bad = 1; print "gated metric worse: " $0 } END { exit !bad }' >&2; then
    exit 1
fi

if [ "$FUZZ_SECONDS" -gt 0 ]; then
    step "fuzz smoke (${FUZZ_SECONDS}s per target)"
    # Enumerate every fuzz target and give each a short budget. Go only
    # allows one -fuzz pattern per package invocation, so iterate.
    go list ./... | while read -r pkg; do
        targets=$(go test -list '^Fuzz' "$pkg" 2>/dev/null | grep '^Fuzz' || true)
        for t in $targets; do
            echo "  $pkg $t"
            go test -run "^${t}$" -fuzz "^${t}$" -fuzztime "${FUZZ_SECONDS}s" "$pkg"
        done
    done
fi

step "ok"
