#!/bin/sh
# Prints the seven surface-size numbers ROADMAP open item 5 tracks, so a
# change can record them before and after in CHANGES.md, and fails when any
# of them exceeds its ceiling in scripts/surface.ceilings — the numbers are
# a ratchet: a PR that earns a lower number lowers the ceiling (a one-line
# edit), and nothing grows without raising one in review.
#
#   go_lines      non-test Go lines outside benchmark/ and testdata/
#   exported      lines of `go doc -short .` (the root package's exported API)
#   options       of those, the exported With* functions (the knob count)
#   methods       the root package's exported methods (`go doc -all .`)
#   routes        mux.Handle registrations in internal/server/http.go
#   suppressions  //lint:allow and //lint:file-allow lines outside internal/lint/
#   flags         command-line flag definitions of the cmd/ binaries (cmd/cfpq's
#                 live in internal/cli/cli.go)
set -eu
cd "$(git rev-parse --show-toplevel)"

go_lines=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' \
	-exec cat {} + | wc -l)
api=$(go doc -short .)
exported=$(printf '%s\n' "$api" | wc -l)
options=$(printf '%s\n' "$api" | grep -c '^ *func With')
methods=$(go doc -all . | grep -c '^func (')
routes=$(grep -c 'mux\.Handle' internal/server/http.go)
suppressions=$(grep -rE '^[[:space:]]*//lint:(file-)?allow' --include='*.go' . |
	grep -vc '^\./internal/lint/')
flags=$(cat cmd/*/main.go internal/cli/cli.go |
	grep -E '(^|[^[:alnum:]_])(flag|fs)\.[A-Z][[:alnum:]]*\((&[^,]+, *)?"' | grep -vc NewFlagSet)

printf 'go_lines %d\nexported %d\noptions %d\nmethods %d\nroutes %d\nsuppressions %d\nflags %d\n' \
	"$go_lines" "$exported" "$options" "$methods" "$routes" "$suppressions" "$flags"

status=0
while read -r name ceiling; do
	eval "value=\$$name"
	if [ "$value" -gt "$ceiling" ]; then
		echo "surface: $name is $value, above its ceiling of $ceiling (scripts/surface.ceilings)" >&2
		status=1
	fi
done <scripts/surface.ceilings
exit $status
