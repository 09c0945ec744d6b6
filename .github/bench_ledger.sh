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
#   bench_ledger.sh dead     print each exported name the surface counts
#                            that no non-test file (bench/ included)
#                            references apart from its declaration, and
#                            their number: the names only tests reach
#   bench_ledger.sh reach    print each library function (outside bench/,
#                            cmd/ and examples/) that no non-test program
#                            runs, and their number: the paths only tests
#                            reach, found by execution where dead finds
#                            names by reference
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

# dead lists what the dead-name ledger lists: of the names surface counts,
# each one no non-test .go file (bench/ included, hidden directories not)
# references apart from its declaration. A top-level name is referenced by
# a bare identifier in its own package or by pkg.Name where pkg imports
# it; a method, whose receiver needs types to resolve, by any selector
# .Name at all, so a method that shares its name with a live one is not
# listed. Methods that satisfy the standard interfaces (String, Error,
# Read, Write, Close, Seek, Unwrap) are skipped. Like surface it parses
# the files with go/parser from a throwaway module.
dead() {
	local tmp
	tmp=$(mktemp -d)
	cat >"$tmp/go.mod" <<-'EOF'
		module dead
	EOF
	cat >"$tmp/main.go" <<-'EOF'
		package main

		import (
			"fmt"
			"go/ast"
			"go/parser"
			"go/token"
			"os"
			"path"
			"path/filepath"
			"sort"
			"strconv"
			"strings"
		)

		// skip are the methods the standard interfaces call.
		var skip = map[string]bool{"String": true, "Error": true, "Read": true,
			"Write": true, "Close": true, "Seek": true, "Unwrap": true}

		// decl is one exported name: its package path, the name as listed
		// (Type.Method for a method) and its declaring identifier.
		type decl struct {
			pkg, name string
			method    bool
			id        *ast.Ident
		}

		func main() {
			root, module := os.Args[1], os.Args[2]
			fset := token.NewFileSet()
			var decls []decl
			declIDs := map[*ast.Ident]bool{}
			uses := map[string]bool{} // "pkg.Name" of top-level names referenced
			sels := map[string]bool{} // selector names, for methods
			var files []*ast.File
			var pkgs []string
			for _, rel := range os.Args[3:] {
				f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				pkg := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
				files, pkgs = append(files, f), append(pkgs, pkg)
				if strings.HasPrefix(filepath.ToSlash(rel), "bench/") {
					continue
				}
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							decls = append(decls, decl{pkg, d.Name.Name, false, d.Name})
						} else if recv := recvType(d.Recv.List[0].Type); ast.IsExported(recv) && !skip[d.Name.Name] {
							decls = append(decls, decl{pkg, recv + "." + d.Name.Name, true, d.Name})
						}
					case *ast.GenDecl:
						for _, s := range d.Specs {
							switch s := s.(type) {
							case *ast.TypeSpec:
								decls = append(decls, decl{pkg, s.Name.Name, false, s.Name})
							case *ast.ValueSpec:
								for _, id := range s.Names {
									decls = append(decls, decl{pkg, id.Name, false, id})
								}
							}
						}
					}
				}
			}
			for _, d := range decls {
				declIDs[d.id] = true
			}
			for i, f := range files {
				imports := map[string]string{}
				for _, im := range f.Imports {
					p, _ := strconv.Unquote(im.Path.Value)
					name := path.Base(p)
					if im.Name != nil {
						name = im.Name.Name
					}
					imports[name] = p
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SelectorExpr:
						sels[n.Sel.Name] = true
						if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
							uses[imports[x.Name]+"."+n.Sel.Name] = true
							return false
						}
					case *ast.Ident:
						if !declIDs[n] {
							uses[pkgs[i]+"."+n.Name] = true
						}
					}
					return true
				})
			}
			var out []string
			for _, d := range decls {
				short := d.name[strings.LastIndex(d.name, ".")+1:]
				if !ast.IsExported(short) {
					continue
				}
				if d.method && !sels[short] || !d.method && !uses[d.pkg+"."+d.name] {
					out = append(out, fmt.Sprintf("%s  %s", "."+strings.TrimPrefix(d.pkg, module), d.name))
				}
			}
			sort.Strings(out)
			for _, l := range out {
				fmt.Println(l)
			}
			fmt.Printf("%6d  total\n", len(out))
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
	(cd "$tmp" && GOTOOLCHAIN=local go run . "$root" "$(cd "$root" && go list -m)" $(cd "$root" &&
		find . -name '.?*' -prune -o -name '*.go' ! -name '*_test.go' -print | sed 's|^\./||' | sort))
	rm -rf "$tmp"
}

# reach lists what the reach ledger lists. It builds the benchmark, both
# commands and the seven examples with coverage of every package, runs
# them — each workload for 1 s plain and 1 s traced, pariobench -list and
# -run all -metrics, every example, and a parioctl session on a scratch
# volume: init, a file of each organization created, put, cat and
# described, a conversion, ls, fsck, df, rm, and a recorded trace read
# back — and prints the functions the merged profile shows at 0 % outside
# bench/, cmd/ and examples/, then their number.
reach() {
	local tmp mod bin ctl vol
	tmp=$(mktemp -d)
	mod=$(go list -m)
	bin=$tmp/bin ctl=$tmp/bin/parioctl vol=$tmp/vol
	for p in bench cmd/pariobench cmd/parioctl examples/*; do
		go build -cover -coverpkg=./... -o "$bin/${p##*/}" "./$p"
	done
	(
		export GOCOVERDIR=$tmp/cov
		mkdir -p "$GOCOVERDIR"
		for w in ckpt_replay ckpt_fresh org_scan multijob_qos; do
			"$bin/bench" -workload "$w" -seed 1 -seconds 1
			"$bin/bench" -workload "$w" -seed 1 -seconds 1 -trace 1 -trace-out "$tmp/$w.json"
		done
		"$bin/pariobench" -list
		"$bin/pariobench" -run all -metrics
		for p in examples/*; do
			"$bin/${p##*/}"
		done
		head -c 8192 /dev/zero | tr '\0' p >"$tmp/payload"
		"$ctl" init -vol "$vol" -devices 4
		for org in S PS IS SS GDA PDA; do
			"$ctl" create -vol "$vol" -name "$org" -org "$org" -records 64 -recsize 128 -parts 2
			"$ctl" put -vol "$vol" -name "$org" <"$tmp/payload"
			"$ctl" cat -vol "$vol" -name "$org" | cmp - "$tmp/payload"
			"$ctl" info -vol "$vol" -name "$org"
		done
		"$ctl" convert -vol "$vol" -src PS -dst PS-IS -org IS -parts 2
		"$ctl" ls -vol "$vol"
		"$ctl" fsck -vol "$vol"
		"$ctl" df -vol "$vol"
		"$ctl" rm -vol "$vol" -name S
		"$ctl" trace "$tmp/ckpt_replay.json"
	) >/dev/null
	go tool covdata textfmt -i="$tmp/cov" -o "$tmp/cover.txt"
	go tool cover -func="$tmp/cover.txt" | awk -v mod="$mod/" '
		$NF == "0.0%" && index($1, mod) == 1 {
			path = substr($1, length(mod) + 1)
			if (path ~ /^(bench|cmd|examples)\//) next
			printf "%s  %s\n", path, $2
			n++
		}
		END { printf "%6d  total\n", n }'
	rm -rf "$tmp"
}

case "${1:-check}" in
lines)
	lines
	;;
surface)
	surface
	;;
dead)
	dead
	;;
reach)
	reach
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
	echo "usage: $0 [check|record|lines|surface|dead|reach]" >&2
	exit 2
	;;
esac
