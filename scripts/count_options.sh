#!/bin/sh
# count_options.sh — how many settings the program offers, as one number.
#
# A setting is anything a caller can turn: an exported field of a non-test
# struct whose name ends in Config or Options, a With* option of the root
# facade, a flag definition, an environment variable read and a build
# constraint. Fields declared together (A, B int) count once each. The
# benchmark harness (benchmark/) is a client of these settings, not a
# source of them, and is left out. It prints the total on stdout and the
# count per kind on stderr; it never fails on the number.
set -eu
cd "$(dirname "$0")/.."

outside_bench=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' ! -path './benchmark/*' | sort)

fields=$(awk '
	/^type [A-Za-z0-9_]*(Config|Options) struct \{/ { inside = 1; depth = 1; next }
	inside {
		line = $0
		sub(/\/\/.*/, "", line)
		if (depth == 1 && line ~ /^\t[A-Z]/) {
			n++
			for (k = 1; k < NF && $k ~ /,$/; k++) n++
		}
		depth += gsub(/\{/, "{", line) - gsub(/\}/, "}", line)
		if (depth == 0) inside = 0
	}
	END { print n + 0 }' $outside_bench)
withs=$(ls *.go | grep -v '_test\.go$' | xargs grep -cE '^func With[A-Z]' | awk -F: '{s += $NF} END {print s + 0}')
flags=$(printf '%s\n' "$outside_bench" | xargs grep -ohE '\bflag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|Var|TextVar|BoolVar|IntVar|Int64Var|UintVar|Uint64Var|StringVar|Float64Var|DurationVar)\(' | wc -l)
envs=$(printf '%s\n' "$outside_bench" | xargs grep -ohE '\bos\.(Getenv|LookupEnv)\(' | wc -l)
tags=$(printf '%s\n' "$outside_bench" | xargs grep -hE '^//go:build ' | wc -l)

echo "Config/Options fields $fields, facade With* $withs, flags $flags, env vars $envs, build tags $tags" >&2
echo $((fields + withs + flags + envs + tags))
