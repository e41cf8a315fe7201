#!/usr/bin/env bash
# ci.sh — the full verification gate: formatting, vet, build, the test
# suite under the race detector, and a short fuzz smoke of every fuzz
# target. CI invokes this script (see .github/workflows/ci.yml); run it
# locally before sending a change.
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

# Surface gate: Query/Kernel are the only read and compute entry points,
# so nothing superseded may linger behind a Deprecated: marker — delete
# it instead; and typed options and flags are the only configuration
# surface, so the library and the cmds never read the process
# environment; and Algorithm 3's WRITE exists once, so the store calls
# Format.Build in one place and encodes a fragment in one place
# (prepareBatch — Write, WriteBatch, the chunked ingest and compaction
# all go through it); and Algorithm 3's READ exists once, so a fragment
# is fetched from two places only (readFragment on the READ loop, and
# warmCache) and internal/core offers one walk (Iterator.Each and
# RegionScanner.ScanRegion — no iter.Seq2 twin of them); and the tile
# grid is declared once (store.Tiling, internal/store/tiling.go: index,
# name, extent, clip, range, walk), so neither Chunked nor Router spells
# a tile name or index of its own, and the per-point name is appended
# digits, never fmt. The numbers printed are the baseline the next
# simplicity change is measured against.
step "surface (no Deprecated: markers; no environment reads; one Build, one Encode; one fetch, one walk; one tiling; exported methods; options; code lines)"
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
fetches=$(grep -hE 'fetchFragment\(' $store_src | grep -cvE '^func |^\s*//' || true)
if [ "$fetches" -ne 2 ]; then
    echo "internal/store fetches a fragment from $fetches places (want 2: readFragment and warmCache — read through readView)" >&2
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
n=$(sed -n '/^type Backend interface {/,/^}/p' internal/serve/backend.go | grep -cE '^\s+[A-Z][A-Za-z]*\(')
echo "  methods of serve.Backend: $n"
for recv in Store Chunked; do
    n=$(find internal/store -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 |
        xargs -0 grep -hE "^func \\((s|c) \\*${recv}\\) [A-Z]" | wc -l)
    echo "  exported methods of *${recv}: $n"
done
n=$(find internal/store -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 grep -hE '^func With[A-Z]' | wc -l)
echo "  store.With* options: $n"
lines=$(find internal/store internal/serve internal/wire -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 cat | grep -cvE '^\s*(//.*)?$')
echo "  non-blank non-comment lines, internal/{store,serve,wire}: $lines"
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
step "go test -race"
go test -race ./...

# Race-hammer tier: readers, writers, a deleter, and a compactor pound
# one store per organization under the race detector while every result
# is differentially verified against an epoch-indexed oracle; and two
# writers race to create the same tiles of a chunked store — directly,
# and as clients of one served ChunkedBackend — beside region reads,
# probes, kernels and deletions. The suite above already runs both once
# at the default scale; this tier repeats them with more iterations
# (HAMMER_COUNT, default 3) so interleavings vary.
step "race hammer (concurrent serving, ${HAMMER_COUNT:-3} rounds)"
go test -race -run 'TestConcurrentHammer|TestNoMixedEpochReads|TestChunkedConcurrentTileCreation' \
    -count "${HAMMER_COUNT:-3}" ./internal/store/ ./internal/serve/

# Live-endpoint smoke: import a scratch store, serve its telemetry, and
# validate both scrape formats end to end — /metrics through the strict
# Prometheus parser, /metrics.json through the OTLP decoder, plus the
# ?since= delta protocol (known baseline 200, unknown 410). The -warm
# and -readall flags guarantee the scrape carries cache-warming and
# read-path counters to assert on.
step "serve smoke (live /metrics + /metrics.json scrape)"
SMOKE_DIR=$(mktemp -d)
SERVE_PID=""
SMOKE_PIDS=""
trap '[ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true; [ -n "$SMOKE_PIDS" ] && kill $SMOKE_PIDS 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
printf '# shape: 16 16\n1 2 10\n3 4 20\n5 6 30\n' > "$SMOKE_DIR/ds.txt"
go build -o "$SMOKE_DIR/sparsestore" ./cmd/sparsestore
"$SMOKE_DIR/sparsestore" import -dir "$SMOKE_DIR/store" -kind GCSR++ -in "$SMOKE_DIR/ds.txt"
"$SMOKE_DIR/sparsestore" serve -dir "$SMOKE_DIR/store" -addr 127.0.0.1:0 \
    -addr-file "$SMOKE_DIR/addr" -warm 1 -readall &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "serve exited early" >&2; exit 1; }
    sleep 0.1
done
[ -s "$SMOKE_DIR/addr" ] || { echo "serve never wrote its address" >&2; exit 1; }
go run ./scripts/checkmetrics -addr "$(cat "$SMOKE_DIR/addr")" \
    -expect fragcache.warmed -expect store.read.count
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
# checkmetrics scrapes /metrics (the OnScrape hook absorbs every
# shard's obs snapshot, so the aggregate must carry both the router's
# scatter counters and the shards' store counters), and checktrace
# asserts the stitched Chrome trace follows the request across client,
# router, and shard processes with resolvable parent links, that every
# /debug/slowlog line parses with a cost breakdown, and that
# /trace?trace_id= serves the trace back.
step "router smoke (3 shards, scatter-gather rpc + fleet /metrics + stitched trace)"
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
    -expect store.read.count -expect store.chunked.ingest.count
go run ./scripts/checktrace -file "$SMOKE_DIR/trace.json" \
    -addr "$(cat "$SMOKE_DIR/router.metrics")"
kill $SMOKE_PIDS 2>/dev/null || true
wait $SMOKE_PIDS 2>/dev/null || true
SMOKE_PIDS=""

# Benchmark smoke: benchmark/ is frozen to most changes (BENCHMARK.json
# lists it under paths) yet compiles and runs against internal/, so a
# change that stops it building or answering must fail here, not in the
# pipeline that runs it afterwards. Each workload runs once at the smoke
# scale (32-cube tensor); the driver exits non-zero when a reply is
# wrong, and the printed failed count must be 0.
step "benchmark smoke (go vet ./benchmark; 4 workloads at -smoke, failed 0)"
go vet ./benchmark
for w in point_wire region_cold kernel_scan ingest_mixed; do
    out=$(go run ./benchmark -workload "$w" -smoke)
    echo "$out" | grep -E '^   attempted '
    echo "$out" | grep -qE '^   attempted [0-9]+  failed 0 ' || { echo "benchmark smoke: $w reports failed operations" >&2; exit 1; }
done

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
