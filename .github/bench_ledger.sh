#!/usr/bin/env bash
# The modeled-time ledger. .github/bench_baseline.jsonl holds the four
# benchmark records (bench/README.md; --seed 1 --seconds 5) of the commit
# that last moved a modeled time. Modeled metrics repeat exactly for a
# seed on any host, so CI reproduces the four records and compares:
#
#   bench_ledger.sh check    fail if a modeled_* row reads anything but
#                            "identical" or a host_alloc* row reads "worse";
#                            the wall-clock rows are printed, never gated
#   bench_ledger.sh record   rewrite the baseline from this checkout
#   bench_ledger.sh layout   fail if the benchmark binary is laid out so that
#                            multijob_qos's set-up reads 40 % slow (below);
#                            check runs it first
#   bench_ledger.sh lines    print the non-test Go code lines (comment and
#                            blank lines left out) of every package outside
#                            bench/, and their total: the code-size ledger
#
# A PR that moves modeled time on purpose runs `record` and commits the
# result: that diff is its row in the ledger.
set -euo pipefail
cd "$(dirname "$0")/.."
baseline=.github/bench_baseline.jsonl

record() {
	rm -f "$1"
	for w in ckpt_replay ckpt_fresh org_scan multijob_qos; do
		bash bench/run.sh --workload "$w" --seed 1 --seconds 5 --out "$1" >/dev/null
	done
}

# multijob_qos's setup_s is one byte-fill loop, inlined in
# main.newMultijob.func1. It runs 2.2 ms when that function starts on a
# 64-byte boundary and 3.5 ms when it starts 32 bytes off, which any
# change in the size of the code linked ahead of package main can bring
# about — and +47 % is past the benchmark's 25 % bound on setup_s (PRs 22
# and 23 each met it). The address does not depend on the checkout
# directory. When this fails, change the size of any non-test function
# bench links (a named comparator for a closure, a dropped defer) and
# look again.
layout() {
	bash bench/run.sh -list >/dev/null
	addr=$(GOTOOLCHAIN=local go tool nm -n .bench_build/bench | awk '$3 == "main.newMultijob.func1" { print $1 }')
	if [ -z "$addr" ]; then
		echo "ledger: layout: main.newMultijob.func1 is not in .bench_build/bench" >&2
		return 1
	fi
	if [ $((0x$addr % 64)) -ne 0 ]; then
		echo "ledger: layout: main.newMultijob.func1 starts at $addr, $((0x$addr % 64)) bytes past a 64-byte boundary: multijob_qos setup_s will read about 40 % slow" >&2
		return 1
	fi
	echo "ledger: layout: main.newMultijob.func1 starts at $addr, on a 64-byte boundary"
}

# lines counts what the code-size ledger counts: lines of non-test .go
# files outside bench/ (and outside hidden directories) that are neither
# blank nor a // comment, per package directory, then the total.
lines() {
	find . \( -name '.?*' -o -path ./bench \) -prune -o -name '*.go' ! -name '*_test.go' -print |
		sort | xargs awk '
			FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); sub(/^\.\/?/, "", pkg); if (pkg == "") pkg = "." }
			/^[ \t]*(\/\/.*)?$/ { next }
			{ n[pkg]++; total++ }
			END {
				for (p in n) printf "%6d  %s\n", n[p], p | "sort -k2"
				close("sort -k2")
				printf "%6d  total\n", total
			}'
}

case "${1:-check}" in
lines)
	lines
	;;
record)
	record "$baseline"
	;;
layout)
	layout
	;;
check)
	layout
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	record "$tmp/now.jsonl"
	# -compare exits 1 on any "worse" row, wall-clock included: the verdict
	# that gates is the awk below.
	bash bench/run.sh -compare "$baseline" "$tmp/now.jsonl" | tee "$tmp/table.txt" || true
	awk '
		$2 ~ /^modeled_/ && $NF != "identical" {
			print "ledger: " $1 " " $2 " reads " $NF ", not identical: if the move is meant, run .github/bench_ledger.sh record and say why in CHANGES.md"
			bad = 1
		}
		$2 ~ /^host_alloc/ && $NF == "worse" {
			print "ledger: " $1 " " $2 " is worse than the baseline"
			bad = 1
		}
		END { exit bad }
	' "$tmp/table.txt"
	;;
*)
	echo "usage: $0 [check|record|layout|lines]" >&2
	exit 2
	;;
esac
