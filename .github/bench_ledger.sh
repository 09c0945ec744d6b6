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

case "${1:-check}" in
record)
	record "$baseline"
	;;
check)
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
	echo "usage: $0 [check|record]" >&2
	exit 2
	;;
esac
