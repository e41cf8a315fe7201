#!/usr/bin/env bash
# selfcheck.sh — run the whole suite on the same tree as side a and as
# side b, alternating, and compare b against a with BENCHMARK.json's
# bounds. On an unchanged tree no row may be "worse"; rows that read
# "unresolved" say the box is too noisy to tell that metric apart to
# within its bound. Exit status is -compare's: 1 if any row is worse.
#
# One pair is two suites (about 8 minutes). On a box whose speed drifts
# between suites one pair can read "worse" on an unchanged tree; with
# several pairs each side's value is the median over its suites and its
# spread is taken across them, which is what tells drift from change.
#
# Usage: benchmark/selfcheck.sh [seed] [pairs]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-1}"
pairs="${2:-3}"
out=benchmark/out
a=() b=()
for i in $(seq 1 "$pairs"); do
    go run ./benchmark -seed "$seed" -out "$out/selfcheck_a$i.json"
    go run ./benchmark -seed "$seed" -out "$out/selfcheck_b$i.json"
    a+=("$out/selfcheck_a$i.json") b+=("$out/selfcheck_b$i.json")
done
join() { local IFS=,; echo "$*"; }
go run ./benchmark -compare "$(join "${a[@]}")" "$(join "${b[@]}")"
