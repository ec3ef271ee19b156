#!/bin/sh
# loc.sh prints the module's non-test Go line count outside bench/: the
# total first, then one "lines directory" row per package, largest first.
#
#   sh scripts/loc.sh
#
# CI prints it for information; nothing gates on it.
set -eu
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.git/*' | sort | awk '
{
	dir = $0
	sub(/\/[^\/]*$/, "", dir)
	sub(/^\.\//, "", dir)
	c = 0
	while ((getline line < $0) > 0)
		c++
	close($0)
	n[dir] += c
	total += c
}
END {
	printf "%d total\n", total
	for (d in n)
		printf "%d %s\n", n[d], d | "sort -k1,1nr -k2,2"
}'
