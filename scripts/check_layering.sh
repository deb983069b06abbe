#!/bin/sh
# check_layering.sh — the kernel/driver boundary, mechanically enforced.
#
# internal/node is the shared middleware kernel; internal/sim and
# internal/runtime are its drivers. The dependency must point from the
# drivers to the kernel, never back — otherwise the layering silently
# inverts and the "one hot path" property the refactor bought is lost.
set -eu
cd "$(dirname "$0")/.."

fail=0

node_deps=$(go list -deps repro/internal/node)
for bad in repro/internal/sim repro/internal/runtime; do
	if printf '%s\n' "$node_deps" | grep -qx "$bad"; then
		echo "layering violation: internal/node imports $bad" >&2
		fail=1
	fi
done

# The inverse direction must hold: both engines are kernel drivers. A
# drift where an engine stops importing the kernel means middleware logic
# grew back inside it.
for engine in repro/internal/sim repro/internal/runtime; do
	if ! go list -deps "$engine" | grep -qx repro/internal/node; then
		echo "layering violation: $engine no longer drives internal/node" >&2
		fail=1
	fi
done

# Observability is a leaf: internal/obs may be imported from anywhere but
# must itself stay stdlib-only — an obs that pulls in an engine (or any
# repro package) can deadlock the layer it instruments and ends the
# zero-cost argument.
obs_deps=$(go list -deps repro/internal/obs)
if printf '%s\n' "$obs_deps" | grep -v '^repro/internal/obs$' | grep -q '^repro/'; then
	echo "layering violation: internal/obs imports repro packages:" >&2
	printf '%s\n' "$obs_deps" | grep -v '^repro/internal/obs$' | grep '^repro/' >&2
	fail=1
fi

# The stores report durability upward through a callback the engine
# registers (storage.Store.NotifyDurable); they must never reach for the
# engine themselves — the committer calling into a node's lock is the
# deadlock the egress fence's lock order exists to rule out.
for store in repro/internal/storage repro/internal/storage/logstore; do
	for bad in repro/internal/sim repro/internal/runtime repro/internal/node; do
		if go list -deps "$store" | grep -qx "$bad"; then
			echo "layering violation: $store imports $bad" >&2
			fail=1
		fi
	done
done

# One network, two wires. The link layer (internal/runtime/link.go) is the
# network of every live cluster; which wire carries its frames is decided
# once, in NewCluster, and the socket wire is named in one file. A second
# import of the transport, or a test for "have I a mesh?", is the private
# in-process branch growing back. And the transport stays a wire: it carries
# frames for an engine, it does not reach into one.
rt_files=$(ls internal/runtime/*.go | grep -v '_test\.go$')
wire_users=$(grep -l '"repro/internal/transport"' $rt_files | grep -v '/wire\.go$' || true)
if [ -n "$wire_users" ]; then
	echo "layering violation: internal/transport imported outside internal/runtime/wire.go:" >&2
	echo "$wire_users" >&2
	fail=1
fi
if grep -n 'mesh [!=]= nil' $rt_files >&2; then
	echo "layering violation: internal/runtime asks which wire it has (mesh == nil / mesh != nil)" >&2
	fail=1
fi
if grep -n 'cfg\.TCP' $(echo "$rt_files" | grep -v '/runtime\.go$') >&2; then
	echo "layering violation: Config.TCP read outside NewCluster (internal/runtime/runtime.go)" >&2
	fail=1
fi
for bad in repro/internal/sim repro/internal/runtime; do
	if go list -deps repro/internal/transport | grep -qx "$bad"; then
		echo "layering violation: internal/transport imports $bad" >&2
		fail=1
	fi
done

# One vocabulary of stacks. A protocol is named and built from the table in
# internal/protocol/protocol.go, a collector from the one in
# internal/core/collectors.go; every facade, CLI and experiment table looks
# its stack up there. A second constructor switch or collector-name literal
# is a copy of that vocabulary growing back. The kernel's nil-protocol
# default (internal/node) and the frozen benchmark/ are the exceptions. The
# two packages the vocabulary replaced stay gone.
go_files=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*' | sed 's|^\./||' |
	grep -v -e '^internal/node/' -e '^benchmark/' \
		-e '^internal/protocol/protocol\.go$' -e '^internal/core/collectors\.go$')
if grep -nE 'protocol\.New(FDAS|FDI|CBR|Russell|BCS|None)\(\)|"(RDT-LGC|no-gc|sync-opt|rl-gc)"' $go_files >&2; then
	echo "layering violation: a protocol constructor or collector name outside the vocabulary (internal/protocol/protocol.go, internal/core/collectors.go)" >&2
	fail=1
fi
for gone in internal/metrics internal/zcfgc; do
	if [ -e "$gone" ]; then
		echo "layering violation: $gone exists; its statistics live in internal/sweep and its argument in DESIGN.md" >&2
		fail=1
	fi
done

# And the instrumentation must stay attached: the kernel and both engines
# report through obs. Losing the import means a layer went dark.
for layer in repro/internal/node repro/internal/runtime repro/internal/sim; do
	if ! go list -deps "$layer" | grep -qx repro/internal/obs; then
		echo "layering violation: $layer no longer reports through internal/obs" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "layering ok: internal/node imports neither engine; both engines drive it; the stores and the transport import neither; one file of the runtime names the socket wire; obs is a stdlib-only leaf; protocols and collectors are named in one table each"
