#!/usr/bin/env bash
# Runs one perfbench workload. Call it from the root of a source checkout:
#
#   bash perfbench/run.sh --workload region-d3 --seed 1 --seconds 10 --trace 0
#
# It builds cmd/mird and the benchmark from the checkout's sources into
# .bench_build/perfbench, with the Go build cache there too so nothing is
# written outside the checkout, then runs the benchmark with the given
# arguments. The last line on stdout is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mird" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a mir source checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root" && go build -o "$out/mird" ./cmd/mird)
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Outside a git repository, a hash of the Go sources stands in for the commit.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null ||
	(cd "$root" && find . -path ./.bench_build -prune -o -name '*.go' -type f -print | LC_ALL=C sort |
		xargs sha256sum | sha256sum | cut -c1-16 | sed 's/^/src-sha256:/'))
exec "$out/perfbench" -mird "$out/mird" -workdir "$out" -commit "$commit" "$@"
