#!/usr/bin/env bash
# fuzz_floor.sh — run one fuzz lane and fail it if the fuzzer barely ran.
#
# A fuzz lane that passes after a few dozen inputs is a green light with
# nothing behind it: go test exits 0 however few inputs it tried (a worker
# minimizing one input can spend the whole -fuzztime). This wrapper runs the
# lane's command unchanged, reads the fuzzer's last progress line
# ("fuzz: elapsed: 30s, execs: N ..."), prints the lane's execs/s and fails
# if N is below the target's floor for the time it ran.
#
# Usage:
#   scripts/fuzz_floor.sh go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 30s -fuzzminimizetime 10x ./internal/transport
#
# A floor is execs per second, about a tenth of what the target made on a
# 2-CPU x86-64 VM (Go 1.24, -fuzzminimizetime 10x, 30 s; EXPERIMENTS.md
# E35); the lane must make at least floor × elapsed execs. The command's own
# failure (a crasher, a build error) fails the lane first.
set -uo pipefail

target= pkg=
prev=
for a in "$@"; do
	[ "$prev" = -fuzz ] && target=${a#^} && target=${target%\$}
	prev=$a
	pkg=$a
done
pkg=${pkg#./}

case "$pkg:$target" in
internal/transport:FuzzStreamFraming) floor=300 ;;
internal/transport:FuzzDecode) floor=900 ;;
internal/storage:FuzzDecode) floor=850 ;;
internal/storage/logstore:FuzzLogReplay) floor=120 ;;
internal/storage/logstore:FuzzStoreDifferential) floor=1.2 ;;
internal/vclock:FuzzDelta) floor=2400 ;;
*)
	echo "fuzz_floor: no floor recorded for $target in $pkg" >&2
	exit 2
	;;
esac

out=$(mktemp)
trap 'rm -f "$out"' EXIT
"$@" 2>&1 | tee "$out"
status=${PIPESTATUS[0]}
if [ "$status" -ne 0 ]; then
	exit "$status"
fi

# elapsed is a Go duration rounded to seconds: 30s, 1m0s, 1h2m3s.
grep -E '^fuzz: elapsed: [0-9hms]+, execs: [0-9]+' "$out" | tail -n 1 | awk -v t="$pkg:$target" -v floor="$floor" '
	{
		d = $3; sub(/,$/, "", d); secs = 0
		while (match(d, /^[0-9]+[hms]/)) {
			v = substr(d, 1, RLENGTH - 1); u = substr(d, RLENGTH, 1)
			secs += v * (u == "h" ? 3600 : u == "m" ? 60 : 1)
			d = substr(d, RLENGTH + 1)
		}
		n = $5; sub(/,$/, "", n); n += 0
		found = 1
	}
	END {
		if (!found) {
			print "fuzz floor: " t " printed no progress line; it did not fuzz" > "/dev/stderr"
			exit 1
		}
		if (secs < 1) secs = 1
		need = floor * secs
		printf "fuzz floor: %s made %d execs in %ds (%.1f execs/s); floor %g execs/s, %d execs\n", t, n, secs, n / secs, floor, need
		if (n < need) {
			print "fuzz floor: " t " made fewer execs than its floor" > "/dev/stderr"
			exit 1
		}
	}'
