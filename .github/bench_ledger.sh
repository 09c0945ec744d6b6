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
#   bench_ledger.sh lines    print the non-test Go code lines (comment and
#                            blank lines left out) of every package outside
#                            bench/, and their total: the code-size ledger
#   bench_ledger.sh surface  print the exported top-level names (functions,
#                            types, variables, constants) and the exported
#                            methods of exported types of every package
#                            outside bench/, non-test files only, and their
#                            total: the API-size ledger
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

# surface counts what the API-size ledger counts: in the non-test .go
# files of every package directory outside bench/ (and outside hidden
# directories), each exported name a top-level func, type, var or const
# declaration introduces, and each exported method of an exported type;
# per package directory, then the total. It parses the files with
# go/parser, from a throwaway module, so it needs only the toolchain.
surface() {
	local tmp
	tmp=$(mktemp -d)
	cat >"$tmp/go.mod" <<-'EOF'
		module surface
	EOF
	cat >"$tmp/main.go" <<-'EOF'
		package main

		import (
			"fmt"
			"go/ast"
			"go/parser"
			"go/token"
			"os"
			"path/filepath"
			"sort"
		)

		func main() {
			root, n, total := os.Args[1], map[string]int{}, 0
			fset := token.NewFileSet()
			for _, path := range os.Args[2:] {
				f, err := parser.ParseFile(fset, filepath.Join(root, path), nil, parser.SkipObjectResolution)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				pkg := filepath.Dir(path)
				n[pkg] += 0 // a package with no exported name is listed too
				for _, d := range f.Decls {
					for _, name := range exported(d) {
						if ast.IsExported(name) {
							n[pkg]++
							total++
						}
					}
				}
			}
			pkgs := make([]string, 0, len(n))
			for p := range n {
				pkgs = append(pkgs, p)
			}
			sort.Strings(pkgs)
			for _, p := range pkgs {
				fmt.Printf("%6d  %s\n", n[p], p)
			}
			fmt.Printf("%6d  total\n", total)
		}

		// exported lists the names d declares at top level, a method's only
		// when its receiver's type is exported.
		func exported(d ast.Decl) []string {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && !ast.IsExported(recvType(d.Recv.List[0].Type)) {
					return nil
				}
				return []string{d.Name.Name}
			case *ast.GenDecl:
				var names []string
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names = append(names, id.Name)
						}
					}
				}
				return names
			}
			return nil
		}

		// recvType is the name of a receiver's type, pointer and type
		// parameters left off.
		func recvType(e ast.Expr) string {
			for {
				switch t := e.(type) {
				case *ast.StarExpr:
					e = t.X
				case *ast.IndexExpr:
					e = t.X
				case *ast.IndexListExpr:
					e = t.X
				case *ast.Ident:
					return t.Name
				default:
					return ""
				}
			}
		}
	EOF
	local root=$PWD
	(cd "$tmp" && GOTOOLCHAIN=local go run . "$root" $(cd "$root" &&
		find . \( -name '.?*' -o -path ./bench \) -prune -o -name '*.go' ! -name '*_test.go' -print | sort))
	rm -rf "$tmp"
}

case "${1:-check}" in
lines)
	lines
	;;
surface)
	surface
	;;
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
	echo "usage: $0 [check|record|lines|surface]" >&2
	exit 2
	;;
esac
