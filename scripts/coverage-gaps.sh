#!/bin/sh
# coverage-gaps.sh prints every function outside bench/ and examples/ that
# no test executes (0.0 % in `go tool cover -func` over one profile of the
# whole module), as sorted "file:func" lines under a comment header.
#
#   sh scripts/coverage-gaps.sh > coverage-gaps.txt
#
# CI regenerates the list and fails if it is longer than the committed one.
set -eu
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
go test -count=1 -coverpkg=./... -coverprofile="$profile" ./... >/dev/null
echo "# Functions no test executes, outside bench/ and examples/."
echo "# Regenerate: sh scripts/coverage-gaps.sh > coverage-gaps.txt"
echo "# CI fails when this list grows; DESIGN.md §1 says why each entry stays."
go tool cover -func="$profile" | awk '$NF == "0.0%" {
	split($1, loc, ":")
	file = loc[1]
	sub(/^repro\//, "", file)
	if (file !~ /^(bench|examples)\//) print file ":" $2
}' | sort
