#!/usr/bin/env bash
# Fails when a func or method declared under internal/ (exported or not) is in
# none of the symbol tables of the repository's main packages (cmd/, examples/,
# bench, tools/mcmlint), built with inlining off, unless the allow-list below
# names it; and when an allow-listed func is reached after all, so the list
# only shrinks. Methods are compared by receiver type, so same-named methods
# cannot hide each other; generic instantiations are compared without their
# type arguments.
#
# Run it from the repository root: bash tools/reachability.sh
set -euo pipefail

# One func per line as the comparison spells it, then its reason.
allow='
mcmpart/internal/costmodel.(*Model).Throughput       root EstimateThroughput only, which no binary calls
mcmpart/internal/cpsolver.(*Segmenter).NumNodes      the cpsolver.Partitioner interface; no binary calls it through the Segmenter
mcmpart/internal/eval.Func.Assess                    test seam: tests wrap a func as an evaluator
mcmpart/internal/faultinject.(*Set).Counts           test seam: the chaos tests read the fault counts
mcmpart/internal/faultinject.Disable                 test seam: the chaos tests switch faults off
mcmpart/internal/faultinject.Enable                  test seam: the chaos tests switch faults on
mcmpart/internal/faultinject.Middleware              test seam: the chaos tests wrap the HTTP handler
mcmpart/internal/faultinject.NewSet                  test seam: the chaos tests build their fault schedules
mcmpart/internal/mat.(*Dense).Clone                  kernel_ref_test.go copies its seed matrices with it
mcmpart/internal/rl.(*Registry).Save                 root Service.SavePolicyToRegistry only, which no binary calls
mcmpart/internal/rl.sanitizeName                     rl.Registry.Save only
mcmpart/internal/workload.AugmentedCorpusGraphs      root AugmentedCorpusGraphs only, which no binary calls
'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# The symbol list goes beside the binaries' directory, not in it: go tool nm
# reads every file the binaries' glob matches.
mkdir "$work/bin"
for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
	go build -gcflags=all=-l -o "$work/bin/${p##*/}" "$p"
done
for b in "$work"/bin/*; do go tool nm "$b"; done |
	awk '$2 ~ /^[Tt]$/ {print $3}' | perl -pe '1 while s/\[[^][]*\]//g' | sort -u > "$work/syms"
git grep -nP '^func ' -- 'internal/*.go' ':!*_test.go' |
	perl -ne 'next unless m{^(internal/\S*?)/[^/]+\.go:\d+:func (?:\(\w* ?(\*?)(\w+)(?:\[[^\]]*\])?\) )?(\w+)}; next if $4 eq "init"; print "mcmpart/$1.", (defined $3 ? ($2 ? "(*$3)." : "$3.") : ""), "$4\n"' |
	sort -u | comm -23 - "$work/syms" > "$work/unreached"
printf '%s\n' "$allow" | awk 'NF {print $1}' | sort -u > "$work/allow"

status=0
if comm -23 "$work/unreached" "$work/allow" | grep .; then
	echo "reachability: the internal/ funcs above are in no binary; delete them, or allow-list one with its reason" >&2
	status=1
fi
if comm -13 "$work/unreached" "$work/allow" | grep .; then
	echo "reachability: the allow-listed funcs above are reached or gone; take them off the list" >&2
	status=1
fi
exit $status
