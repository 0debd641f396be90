#!/bin/sh
# Runs the benchmark on a base commit and on the working tree, back to back
# on this machine, and fails if any bounded metric regressed.
#
#   benchmark/ci.sh <base-ref> [pairs [benchmark flags...]]
#
# Both sides run this checkout's benchmark code: the base is exported with
# git archive and the benchmark directory copied over it, so a change is
# measured by a benchmark it did not edit.
set -eu

base=${1:?usage: benchmark/ci.sh <base-ref> [pairs [benchmark flags...]]}
pairs=${2:-3}
shift; [ $# -gt 0 ] && shift
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

mkdir "$work/base"
git -C "$root" archive "$base" | tar -x -C "$work/base"
rm -rf "$work/base/benchmark"
mkdir "$work/base/benchmark"
(cd "$root/benchmark" && tar -c --exclude=./out .) | tar -x -C "$work/base/benchmark"
cp "$root/BENCHMARK.json" "$work/base/BENCHMARK.json"

run() { # run <dir> <out.json> [benchmark flags...]
	dir=$1 out=$2
	shift 2
	(cd "$dir" && go run ./benchmark -out "$out" "$@" >/dev/null)
}

bases= heads=
i=1
while [ "$i" -le "$pairs" ]; do
	# Alternate which side goes first, so drift of the machine over the
	# session does not favour one of them.
	if [ $((i % 2)) -eq 1 ]; then
		run "$work/base" "$work/base-$i.json" "$@"
		run "$root" "$work/head-$i.json" "$@"
	else
		run "$root" "$work/head-$i.json" "$@"
		run "$work/base" "$work/base-$i.json" "$@"
	fi
	bases="$bases${bases:+,}$work/base-$i.json"
	heads="$heads${heads:+,}$work/head-$i.json"
	i=$((i + 1))
done

cd "$root"
go run ./benchmark -compare "$bases" "$heads"
