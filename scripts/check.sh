#!/bin/sh
# check.sh — the repo's tier-1+ verification gate.
#
# Runs formatting, vet, build, the full test suite (shuffled, with an
# explicit timeout so a hung transport test fails fast instead of stalling
# CI), and the race detector over the packages that do parallel graph
# surgery or concurrent transport work, then a short fuzz smoke over the
# decoders (CCPG1 graphs, CCPP1 partitions, WAL frames) and the wire query
# id. CI and pre-commit hooks should call
# exactly this script; if it passes, the change is shippable.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
go test -shuffle=on -timeout 10m ./...

echo "== go test -race (parallel surgery + transport lifecycle) =="
go test -race -shuffle=on -timeout 10m \
    . \
    ./internal/control/... \
    ./internal/graph/... \
    ./internal/par/... \
    ./internal/datalog/... \
    ./internal/dist/... \
    ./internal/fleet/... \
    ./internal/store/... \
    ./internal/obs/... \
    ./internal/obs/audit/... \
    ./internal/obs/flight/...

echo "== fuzz smoke (CCPG1, CCPP1 and WAL frame decoders, wire query id) =="
# Each target runs for 30s on two workers. A crasher lands under the
# package's testdata/fuzz/ and fails the step; commit it as a seed.
go test -run '^$' -fuzz '^FuzzReadBinary$' -fuzztime 30s -parallel 2 ./internal/graph
go test -run '^$' -fuzz '^FuzzReadPartition$' -fuzztime 30s -parallel 2 ./internal/partition
go test -run '^$' -fuzz '^FuzzDecodeFrame$' -fuzztime 30s -parallel 2 ./internal/store
go test -run '^$' -fuzz '^FuzzTraceIDWireRoundTrip$' -fuzztime 30s -parallel 2 ./internal/dist

echo "ok: all checks passed"
