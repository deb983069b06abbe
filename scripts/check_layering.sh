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

# One encode time. Both engines compress a piggyback when it is sent, in
# Kernel.Send (its body is Kernel.send, the pointer form it wraps); the
# encoder has no other caller. A second call site, or the
# delivery-time encoder and the position it replayed to, is the lazy path
# growing back — with held positions that would pin encoder state for
# messages not yet delivered.
node_files=$(ls internal/node/*.go | grep -v '_test\.go$')
encode_sites=$(awk '/^func /{fn=$0} /\.encode\(/{print FILENAME ": " fn}' $node_files)
if [ "$(printf '%s\n' "$encode_sites" | grep -c 'func (k \*Kernel) send(')" -ne 1 ] ||
	[ "$(printf '%s\n' "$encode_sites" | grep -c .)" -ne 1 ]; then
	echo "layering violation: compressor.encode must have exactly one call site, in Kernel.send (Kernel.Send's body); found:" >&2
	printf '%s\n' "$encode_sites" >&2
	fail=1
fi
all_go=$(find . -name '*.go' ! -name '*_test.go' ! -path './.git/*')
if grep -nw 'EncodeFor' $all_go >&2 || go doc repro/internal/node Piggyback.Pos >/dev/null 2>&1; then
	echo "layering violation: the delivery-time encoder (EncodeFor, Piggyback.Pos) is back" >&2
	fail=1
fi
# The encoder's state is a fixed 7n ints: a recency list of the changed
# entries, each listed once, replaced the change log, which journalled every
# repeat and grew while one synced destination stayed quiet. The journal and
# the names that managed it stay gone.
if grep -nwE 'logBase|trimAt|minTrim|walkLog' $node_files >&2; then
	echo "layering violation: internal/node keeps a change log again (logBase, trimAt, minTrim, walkLog); the compressor's state is its 7n-int recency list" >&2
	fail=1
fi

# A recovery session costs what failed, not n². Six things kept it
# quadratic, or n-wide, at rest, and each must stay gone. (1) The link sweep:
# a session skips purgeParked's pass over every pair link when the cluster
# counts no link down, so every write of a pairLink's down flag goes through
# setDown, which keeps that count — a write elsewhere lets it drift and a
# session leave a backlog behind. (Node.down, the crashed flag, is an
# atomic.Bool written with Store and is not the link's.) (2) The session body
# walks no pair list itself. (3) A compression reset is O(1): no clear of the
# per-peer slices. (4) A survivor's ReleaseStale walks its collector's held
# set, not all n UC entries. (5) Node.Down reads the atomic crashed flag and
# takes no lock, so Cluster.Down and Restart lock no node. (6) cancelTransit
# sweeps the destination queues only when something is in flight behind its
# barrier.
down_writes=$(awk '/^func /{fn=$0}
	/\.down = / && fn !~ /\) setDown\(/ {print FILENAME ":" FNR ":" $0}' $rt_files)
if [ -n "$down_writes" ]; then
	echo "layering violation: a pairLink's down flag written outside setDown, which keeps the down-link count:" >&2
	printf '%s\n' "$down_writes" >&2
	fail=1
fi
if grep -n 'createdLinks' internal/runtime/recover.go >&2; then
	echo "layering violation: internal/runtime/recover.go walks the pair links; a session purges through purgeParked, which skips the walk when no link is down" >&2
	fail=1
fi
if awk '/^func \([a-z]+ \*compressor\) reset\(/{r=1} r && /clear\(/{found=1} r && /^}/{r=0} END{exit !found}' internal/node/compress.go; then
	echo "layering violation: compressor.reset clears per-peer state; a reset moves resetPos and touches no slice" >&2
	fail=1
fi
if awk '/^func \([a-z]+ \*LGC\) ReleaseStale\(/{r=1} r && /for f := 0; f < g\.n/{found=1} r && /^}/{r=0} END{exit !found}' \
	$(ls internal/core/*.go | grep -v '_test\.go$'); then
	echo "layering violation: core.LGC.ReleaseStale loops over all n UC entries; it walks the held set" >&2
	fail=1
fi
if awk '/^func \([a-z]+ \*Node\) Down\(/{r=1} r && /\.R?Lock\(/{found=1} r && /^}|^func .*}$/{r=0} END{exit !found}' $rt_files; then
	echo "layering violation: runtime.Node.Down takes a lock; it reads the atomic crashed flag" >&2
	fail=1
fi
if awk '/^func \(c \*Cluster\) cancelTransit\(/{r=1}
	r && /^\tif c\.inflight\.n\.Load\(\) != 0 \{$/{g=1}
	r && g && /^\t}$/{g=0}
	r && /purgeQueue\(/ && !g {bad=1}
	r && /^}/{r=0}
	END{exit !bad}' internal/runtime/recover.go; then
	echo "layering violation: cancelTransit sweeps the destination queues outside its in-flight gate" >&2
	fail=1
fi

# Every log record is a full record, one way to open a log store, one
# history. The log store writes each checkpoint whole, so the delta chains'
# names stay gone, and with them the helpers only they or nobody called, the
# second counter of a severed link, the second recovery-line computation and
# the per-message TCP send. Log stores are built by logstore.Open and
# logstore.Factory, not through a registry a package fills from its init. The
# simulator records the pattern once, in its history, and builds the oracle
# from it on demand. And each of the paper's algorithms has one
# implementation: the kernel's FDAS + RDT-LGC composition is Algorithm 4 and
# LGC.Rollback is Algorithm 3, so the fused and the in-place copies stay
# gone; the rescan collector lives in internal/gc's tests as an oracle, where
# go doc does not look.
for gone in storage.AppendDeltaRecord storage.Record storage.FullEvery storage.RegisterBackend storage.Open \
	vclock.DiffAppend vclock.MergeDeltas gc.AllFaultyLine runtime.Cluster.WireErrors transport.TCP.Send \
	core.Merged core.NewMerged core.LGC.RollbackInPlace gc.Naive gc.NewNaive; do
	if go doc "repro/internal/${gone%%.*}" "${gone#*.}" >/dev/null 2>&1; then
		echo "layering violation: $gone exists again; it was deleted as a second implementation, with the delta chains or with its last caller" >&2
		fail=1
	fi
done
if grep -nwE 'fullEvery|unlinkLocked' internal/storage/logstore/*.go >&2; then
	echo "layering violation: internal/storage/logstore chains its records; every log record is a full record" >&2
	fail=1
fi
# The log store keeps one generation file and rewrites its live set into the
# next when it fills; the segment compactor, its victim picking and wake-ups,
# its tombstone carry and the segment-size option are gone, from the store
# and from the torture harness that drove it.
if grep -nwE 'compactOnce|pickVictimLocked|kickIfVictimLocked|copyOutside|compactKick|SegmentBytes' internal/storage/logstore/*.go internal/chaos/*.go >&2; then
	echo "layering violation: the log store's segment compactor is back; a generation switch rewrites the live set instead" >&2
	fail=1
fi
sim_files=$(ls internal/sim/*.go | grep -v '_test\.go$')
if grep -n 'ccp\.NewBuilder' $sim_files >&2; then
	echo "layering violation: internal/sim keeps a second record of the pattern (ccp.NewBuilder); Oracle builds from the history" >&2
	fail=1
fi

# A message takes no cluster-wide lock. Each per-message step touches state
# owned by the sending node, the pair or the receiving node: piggyback
# freelists live on the sending Node, inbound batch scratch on the pair's
# link, mesh connections in a per-pair slot table. The cluster-wide freelists
# and their lock, the mesh's inbound-slice pool and its connection map stay
# gone. The seeded network stream is locked only where it is drawn for a lossy
# or delayed network (randDelayDrop) and where SetNetwork replays what quiet
# sends skipped.
tp_files=$(ls internal/transport/*.go | grep -v '_test\.go$')
if grep -nwE 'dvMu|dvFree|entFree|pendMu|pendFree|getPending|putPending' $rt_files >&2 ||
	grep -nE 'conns[[:space:]]+map' $tp_files >&2; then
	echo "layering violation: a cluster-wide freelist, the mesh's shared inbound pool or its connection map is back" >&2
	fail=1
fi
# One freelist, one view. Both engines serve their kernels' piggyback
# buffers from node.Pool and hand their kernels to gc.View readers through
# node.View; the engines' own freelists, their lock and their view adapters
# stay gone, and so does the log store's copy of the sorted-index helpers
# package storage keeps for both stores.
if grep -nwE 'dvBufs|entBufs|bufMu|dvFree|entFree|runnerView|haltedView' $sim_files $rt_files >&2; then
	echo "layering violation: an engine keeps its own piggyback freelist or gc.View adapter; both use node.Pool and node.View" >&2
	fail=1
fi
if grep -nE 'func (insertSorted|removeSorted)\(' internal/storage/logstore/*.go >&2; then
	echo "layering violation: internal/storage/logstore defines its own sorted-index helpers; use storage.InsertSorted and storage.RemoveSorted" >&2
	fail=1
fi
rng_sites=$(awk '/^func /{fn=$0} /rngMu\.(Try)?Lock\(\)/{print FILENAME ": " fn}' $rt_files |
	grep -v -e ') SetNetwork(' -e ') randDelayDrop(' || true)
if [ -n "$rng_sites" ]; then
	echo "layering violation: rngMu taken outside SetNetwork and the lossy-or-delayed draw (randDelayDrop):" >&2
	printf '%s\n' "$rng_sites" >&2
	fail=1
fi

# A message is written once per hand-off. The destination heap orders 24-byte
# keys over a slab of frames, and from Kernel.Send to the kernel's delivery a
# frame moves by pointer: recycle, egress, enqueue and node.Pool.Recycle take
# pointers, the codec reads a *Message, and the wire and transport fill and
# read their frame batches in place. A heap of whole frames, or a by-value form of any
# of these, is a copy per hand-off growing back.
if grep -nE '^[[:space:]]+h[[:space:]]+\[\]pending|pop\(\) pending' $rt_files >&2 ||
	grep -nE 'func \([a-z]+ \*[A-Za-z]+\) (recycle|egress|enqueue)\([^)]*[a-z] (node\.Piggyback|delivery)[,)]' $rt_files >&2 ||
	grep -nE 'func \([a-z]+ \*Pool\) Recycle\([^)]*[a-z] Piggyback[,)]' $node_files >&2 ||
	grep -nE 'func (appendEncode|encodedSize)\([^)]*[a-z] Message[,)]|func \([a-z]+ Message\) Validate\(' $tp_files >&2 ||
	grep -n 'for _, m := range' internal/runtime/wire.go internal/transport/transport.go >&2; then
	echo "layering violation: a frame copied by value on the message path (a heap of frames, a by-value recycle/egress/enqueue, Pool.Recycle, codec or Validate, or a range copying each message)" >&2
	fail=1
fi

# A cut drains, it does not sever. The link layer blocks a cut pair, passes
# its lock and waits for the wire to drain it, so a TCP pair keeps one
# connection for the mesh's life and nothing is lost to resend: the mesh's
# sever and reap-gated redial, the retransmit window, the wire-seq dedup, the
# retry timer and the backlog bound stay gone. A pair link carries none of
# the TCP wire's scratch: no inbound batch, no batch of wire frames.
for gone in transport.TCP.Sever transport.TCP.WaitReap; do
	if go doc "repro/internal/${gone%%.*}" "${gone#*.}" >/dev/null 2>&1; then
		echo "layering violation: $gone exists again; a cut drains the pair and the connection lives until Close" >&2
		fail=1
	fi
done
if grep -nwE 'frameRing|winBase|pruneWindow|recvSeq|armRetry|holdRetries|reapIdle|linkWindow' \
	$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*') >&2; then
	echo "layering violation: the retransmit window, the wire-seq dedup, the retry timer, the idle reap or the backlog bound is back" >&2
	fail=1
fi
if awk '/^type pairLink struct/{s=1} s && /^}/{s=0}
	s && (/^[[:space:]]+(inbound|frames)[[:space:]]/ || /^[[:space:]]+[A-Za-z_, ]+[[:space:]]frames([[:space:]]|$)/) {print FILENAME ":" FNR ":" $0; f=1}
	END{exit !f}' $rt_files >&2; then
	echo "layering violation: pairLink declares an inbound or frames field; the TCP wire's scratch lives in its meshPair" >&2
	fail=1
fi

# A process's events are recorded once, in one place. The flight recorder is
# the history of a recorded cluster (Config.Record): History joins its
# events at read time, so no second event log may come back — neither the
# per-node log package nor a record call outside internal/runtime/record.go,
# whose three message sites make one record call each and whose
# Cluster.record carries every other event. The cluster tick is only the
# message-id source of a recorded cluster, and only record.go names it.
if go list repro/internal/runtime/history >/dev/null 2>&1; then
	echo "layering violation: repro/internal/runtime/history exists again; the flight recorder is the recorded history" >&2
	fail=1
fi
if grep -nE '\.Record\(|\btick\b' $(echo "$rt_files" | grep -v '/record\.go$') >&2; then
	echo "layering violation: the recorder's Record called, or the cluster tick named, outside internal/runtime/record.go" >&2
	fail=1
fi

# Every setting has a caller. The knobs that only tests set, or that nothing
# read, became constants beside the code they tune (the link layer's backoff
# and window, the mesh's dial timeout, a chaos plan's shape), and the
# mechanisms that only carried them went with them: the facade's state-size
# option, the simulator's opaque checkpoint payload and the kernel driver's
# method that served it. A test that needs another schedule gets a seam in an
# export_test.go, not an option.
for gone in runtime.LinkOptions transport.Options transport.NewTCPWith sim.Config.StateBytes \
	node.Driver.CheckpointState ccp.RandomOptions.MaxDelay chaos.PlanOptions.DowntimeOps \
	chaos.PlanOptions.BurstLoss chaos.PlanOptions.BurstDelay chaos.PlanOptions.RepeatedCrashes \
	chaos.PlanOptions.Flaps; do
	if go doc "repro/internal/${gone%%.*}" "${gone#*.}" >/dev/null 2>&1; then
		echo "layering violation: $gone exists again; it was a setting no caller but a test set, or that nothing read" >&2
		fail=1
	fi
done
if go doc repro WithStateSize >/dev/null 2>&1; then
	echo "layering violation: rdt.WithStateSize exists again; it was a setting no caller but a test set" >&2
	fail=1
fi

# One delivery path. Every message, in both engines, is delivered by the
# kernel's per-message step (Kernel.Deliver): no composed-run batch path — its
# pending run, virtual vector and flush, the patch composition only it called,
# the runtime's per-drain meta table — and the runtime delivers message by
# message, not through DeliverBatch. A count has one cell (the mesh's bad
# frames are a TransportMetrics counter, not an adopted one), and a metric
# nothing reads is not kept.
for gone in vclock.ComposePatch obs.Registry.RegisterCounter transport.TCP.BadFrames \
	obs.RuntimeLinkReconnects; do
	if go doc "repro/internal/${gone%%.*}" "${gone#*.}" >/dev/null 2>&1; then
		echo "layering violation: $gone exists again; a delivery is one per-message step, and a count has one cell that something reads" >&2
		fail=1
	fi
done
if grep -nwE 'pendRun|virtView|flushRun|deliverMeta' \
	$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*') >&2; then
	echo "layering violation: the composed-run delivery path (pendRun, virtView, flushRun) or the runtime's deliverMeta is back" >&2
	fail=1
fi
if grep -rnE '\.DeliverBatch\(' internal/runtime >&2; then
	echo "layering violation: internal/runtime calls DeliverBatch; a drain delivers each message with Kernel.Deliver" >&2
	fail=1
fi

# No ingress ring. Each producer of an inbound batch — a mesh reader, or the
# in-process hand-off — applies its own batch under the receiver's node lock,
# which is the backpressure: no per-node slot ring, drainer role or ring
# field in front of it.
if grep -nE 'ingRingSize|drainLocked|type ingress struct|\.ing\.' \
	$(find internal/runtime -name '*.go' ! -name '*_test.go') >&2; then
	echo "layering violation: the runtime's ingress ring is back; a producer applies its batch under the receiver's lock itself" >&2
	fail=1
fi

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
echo "layering ok: internal/node imports neither engine; both engines drive it; the stores and the transport import neither; one file of the runtime names the socket wire; obs is a stdlib-only leaf; protocols and collectors are named in one table each; piggybacks are encoded at send alone, from an encoder state of 7n ints and no change log; a session sweeps no idle link or empty queue, clears no encoder, walks only held UC entries and reads the crashed set without a lock; a message takes no cluster-wide lock and is written once per hand-off; both engines lend buffers from node.Pool and read kernels through node.View; every event is recorded once, in one file of the runtime, and a recorded cluster's recorder is its history; a cut drains and nothing resends; every message is delivered by the kernel's one per-message step, by the goroutine that brought it, and every count has one cell; every setting has a caller; every log record is a full record and a log store has no compactor; the simulator keeps one history; each paper algorithm has one implementation"
