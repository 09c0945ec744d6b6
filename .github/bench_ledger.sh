#!/usr/bin/env bash
# The modeled-time ledger. .github/bench_baseline.jsonl holds three
# benchmark records of each of the four workloads (bench/README.md; --seed
# 1 --seconds 5) of the commit that last moved a modeled time or an
# allocation row. Modeled metrics repeat exactly for a seed on any host, so
# CI reproduces the twelve records and compares them row by row
# (-compare). An allocation row is gated on its median alone, which one
# pooled-scratch refill landing in a timed op of one run cannot move:
#
#   bench_ledger.sh check    fail if a modeled_* row reads anything but
#                            "identical", or a host_alloc* row's median
#                            rose by more than its bound (or an op
#                            failed); the wall-clock rows are printed,
#                            never gated
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
#                            that no program (bench/ included) reaches by
#                            reference, type-checked from every main, and
#                            their number: the names only tests reach
#   bench_ledger.sh reach    print each library function (outside bench/,
#                            cmd/ and examples/) that no non-test program
#                            runs, and their number: the paths only tests
#                            reach, found by execution where dead finds
#                            names by reference
#
# A PR that moves modeled time on purpose runs `record` and commits the
# result: that diff is its row in the ledger.
#
# dead and reach are gates. .github/unreached.txt is their one
# allow-list: a line "path name reason" for each function or name that
# stays unreached, and why (a reach path is a file, a dead path a package
# directory). Either fails when it prints an entry the list lacks, when a
# list entry is no longer printed, and when an entry has no reason, so a
# path only tests run cannot land unexplained and the list only shrinks:
# give a new entry a program user or delete it, and take off an entry a
# program now reaches.
set -euo pipefail
cd "$(dirname "$0")/.."
baseline=.github/bench_baseline.jsonl

record() {
	rm -f "$1"
	for w in ckpt_replay ckpt_fresh org_scan multijob_qos; do
		for _ in 1 2 3; do
			bash bench/run.sh --workload "$w" --seed 1 --seconds 5 --out "$1" >/dev/null
		done
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
# each one that no program reaches by reference. It type-checks every
# non-test .go file (bench/ included, hidden directories not) with
# go/types and follows references from each program's main and from init:
# a name is reached when reached code refers to it — a method only by a
# selector that resolves to that type's method, or by a call through an
# interface the type satisfies. A name referenced only from code no
# program reaches is listed too. Methods that satisfy the standard
# interfaces (String, Error, Read, Write, Close, Seek, Unwrap) are taken
# as reached. Like surface it runs from a throwaway module, so it needs
# only the toolchain.
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
			"go/importer"
			"go/parser"
			"go/token"
			"go/types"
			"os"
			"path"
			"path/filepath"
			"sort"
			"strings"
		)

		// skip are the methods the standard interfaces call.
		var skip = map[string]bool{"String": true, "Error": true, "Read": true,
			"Write": true, "Close": true, "Seek": true, "Unwrap": true}

		// pkg is one package directory's non-test files and, once checked, its
		// types.
		type pkg struct {
			dir   string
			files []*ast.File
			types *types.Package
		}

		func main() {
			root, module := os.Args[1], os.Args[2]
			fset := token.NewFileSet()
			pkgs := map[string]*pkg{} // by import path
			for _, rel := range os.Args[3:] {
				f, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				p := path.Join(module, filepath.ToSlash(filepath.Dir(rel)))
				if pkgs[p] == nil {
					pkgs[p] = &pkg{dir: filepath.ToSlash(filepath.Dir(rel))}
				}
				pkgs[p].files = append(pkgs[p].files, f)
			}
			refs := map[types.Object][]types.Object{} // what each top-level declaration references
			var roots []types.Object
			var methods []*types.Func // every method declared in the module
			std := importer.Default()
			var imp importerFunc
			imp = func(path string) (*types.Package, error) {
				p := pkgs[path]
				if p == nil {
					return std.Import(path)
				}
				if p.types != nil {
					return p.types, nil
				}
				info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
				tp, err := (&types.Config{Importer: imp}).Check(path, fset, p.files, info)
				if err != nil {
					return nil, err
				}
				p.types = tp
				for _, f := range p.files {
					for _, d := range f.Decls {
						var objs []types.Object
						switch d := d.(type) {
						case *ast.FuncDecl:
							fn := info.Defs[d.Name].(*types.Func)
							objs = append(objs, fn)
							switch {
							case d.Recv != nil:
								methods = append(methods, fn)
								if skip[fn.Name()] {
									roots = append(roots, fn)
								}
							case fn.Name() == "init" || fn.Name() == "main" && tp.Name() == "main":
								roots = append(roots, fn)
							}
						case *ast.GenDecl:
							for _, s := range d.Specs {
								switch s := s.(type) {
								case *ast.TypeSpec:
									objs = append(objs, info.Defs[s.Name])
								case *ast.ValueSpec:
									for _, id := range s.Names {
										objs = append(objs, info.Defs[id])
									}
								}
							}
						}
						ast.Inspect(d, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
								for _, o := range objs {
									refs[o] = append(refs[o], origin(info.Uses[id]))
								}
							}
							return true
						})
					}
				}
				return tp, nil
			}
			paths := make([]string, 0, len(pkgs))
			for p := range pkgs {
				paths = append(paths, p)
			}
			sort.Strings(paths)
			for _, p := range paths {
				if _, err := imp(p); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			// used is what the programs reach by reference: everything main and
			// init reference, what that references, and so on; a method called
			// through an interface reaches that method of every type satisfying
			// the interface.
			used := map[types.Object]bool{}
			var ifaceUses []*types.Func
			for work := roots; len(work) > 0; {
				for len(work) > 0 {
					o := work[len(work)-1]
					work = work[:len(work)-1]
					for _, r := range refs[o] {
						if used[r] {
							continue
						}
						used[r] = true
						work = append(work, r)
						if f, ok := r.(*types.Func); ok && f.Signature().Recv() != nil && types.IsInterface(f.Signature().Recv().Type()) {
							ifaceUses = append(ifaceUses, f)
						}
					}
				}
				for _, m := range methods {
					if !used[m] && viaInterface(m, ifaceUses) {
						used[m] = true
						work = append(work, m)
					}
				}
			}
			var out []string
			for _, p := range paths {
				dir := pkgs[p].dir
				if dir == "bench" || strings.HasPrefix(dir, "bench/") {
					continue
				}
				if dir != "." {
					dir = "./" + dir
				}
				scope := pkgs[p].types.Scope()
				for _, name := range scope.Names() {
					obj := scope.Lookup(name)
					if !obj.Exported() {
						continue
					}
					if !used[obj] {
						out = append(out, dir+"  "+name)
					}
					tn, ok := obj.(*types.TypeName)
					if !ok || tn.IsAlias() {
						continue
					}
					named, ok := tn.Type().(*types.Named)
					if !ok {
						continue
					}
					for i := 0; i < named.NumMethods(); i++ {
						if m := named.Method(i); m.Exported() && !skip[m.Name()] && !used[m] {
							out = append(out, dir+"  "+name+"."+m.Name())
						}
					}
				}
			}
			sort.Strings(out)
			for _, l := range out {
				fmt.Println(l)
			}
			fmt.Printf("%6d  total\n", len(out))
		}

		// viaInterface reports whether a call through an interface reaches
		// method m: a used method of the same name of an interface m's receiver
		// type satisfies.
		func viaInterface(m *types.Func, ifaceUses []*types.Func) bool {
			t := m.Signature().Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			for _, f := range ifaceUses {
				if f.Name() != m.Name() {
					continue
				}
				iface := f.Signature().Recv().Type().Underlying().(*types.Interface)
				if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
					return true
				}
			}
			return false
		}

		type importerFunc func(path string) (*types.Package, error)

		func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

		// origin is the generic declaration of an instantiated function, method
		// or field, and any other object itself.
		func origin(o types.Object) types.Object {
			switch o := o.(type) {
			case *types.Func:
				return o.Origin()
			case *types.Var:
				return o.Origin()
			}
			return o
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

# allowed passes a dead or reach ledger ($1) through and holds it to its
# entries in .github/unreached.txt: a reach entry's path is a file (a .go
# name), a dead entry's a package directory. It fails on a printed entry
# the list lacks, on a list entry the ledger no longer prints, and on a
# list entry with no reason. A reach entry is matched without its line
# number, so moving a function leaves its entry good.
allowed() {
	awk -v ledger="$1" -v list=.github/unreached.txt '
		BEGIN {
			while ((getline line <list) > 0) {
				if (line ~ /^[ \t]*(#|$)/)
					continue
				n = split(line, f, " ")
				if ((f[1] ~ /\.go$/) != (ledger == "reach"))
					continue
				if (n < 3) {
					print "ledger: " list ": " f[1] " " f[2] " gives no reason" >"/dev/stderr"
					bad = 1
				}
				want[f[1] " " f[2]]++
			}
		}
		{ print }
		$2 == "total" { next }
		{
			path = $1
			sub(/:[0-9]+:$/, "", path)
			if (want[path " " $2]-- > 0)
				next
			print "ledger: " path " " $2 " is not on " list ": give it a program user, delete it, or add it there with its reason" >"/dev/stderr"
			bad = 1
		}
		END {
			for (k in want)
				if (want[k] > 0) {
					print "ledger: " k " is on " list " but " ledger " no longer lists it: take it off" >"/dev/stderr"
					bad = 1
				}
			exit bad
		}'
}

# compare prints the -compare table of records $2 against baseline $1.
# -compare exits 1 on any "worse" row, wall-clock included: the verdict
# that gates is gate's.
compare() {
	bash bench/run.sh -compare "$1" "$2" || true
}

# gate reads a -compare table and fails on a modeled_* row that is not
# identical and on a host_alloc* row whose median change ($5, signed, in
# %) is over its bound ($6), whatever the verdict: with three runs a row's
# spread is its max - min, so one jittery run reads "unresolved" and would
# hide a real rise. A row that reads "worse" (a failed op makes any row
# worse) fails too.
gate() {
	awk '
		$2 ~ /^modeled_/ && $NF != "identical" {
			print "ledger: " $1 " " $2 " reads " $NF ", not identical: if the move is meant, run .github/bench_ledger.sh record and say why in CHANGES.md"
			bad = 1
		}
		$2 ~ /^host_alloc/ && ($NF == "worse" || $5 + 0 > $6 + 0) {
			print "ledger: " $1 " " $2 " median moved " $5 " against a bound of " $6 " (" $NF "): worse than the baseline"
			bad = 1
		}
		END { exit bad }
	'
}

# gate_cases holds gate to two made-up comparisons of three runs of one
# allocation row, in directory $1: one jittery run (+7 %) over an
# unchanged median passes, and the same jitter over a 3 % median rise
# fails.
gate_cases() {
	local row='{"provenance":{"workload":"ckpt_fresh","seed":1},"metrics":{"host_alloc_KB_per_op":{"value":%s}}}\n'
	printf "$row" 7.00 7.00 7.00 >"$1/gate_base.jsonl"
	printf "$row" 7.00 7.00 7.49 >"$1/gate_jitter.jsonl"
	printf "$row" 7.21 7.21 7.72 >"$1/gate_rise.jsonl"
	if ! compare "$1/gate_base.jsonl" "$1/gate_jitter.jsonl" | gate >/dev/null; then
		echo "ledger: gate fails one jittery run over an unchanged median" >&2
		exit 1
	fi
	if compare "$1/gate_base.jsonl" "$1/gate_rise.jsonl" | gate >/dev/null; then
		echo "ledger: gate passes a 3 % median rise with one jittery run" >&2
		exit 1
	fi
}

case "${1:-check}" in
lines)
	lines
	;;
surface)
	surface
	;;
dead)
	dead | allowed dead
	;;
reach)
	reach | allowed reach
	;;
record)
	record "$baseline"
	;;
check)
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	gate_cases "$tmp"
	record "$tmp/now.jsonl"
	compare "$baseline" "$tmp/now.jsonl" | tee "$tmp/table.txt"
	gate <"$tmp/table.txt"
	;;
*)
	echo "usage: $0 [check|record|lines|surface|dead|reach]" >&2
	exit 2
	;;
esac
