package history

// What the live cluster's history costs per message and per recovery
// session, pinned and benchmarked: a record is 16 bytes into a chunk, and a
// cut walks back from the tail.

import "testing"

var sink int

// TestRecordAllocatesOneChunkPer256Events: a record inside a chunk
// allocates nothing, and filling a chunk allocates that chunk and nothing
// else (the chunk list's own doubling is too rare to show).
func TestRecordAllocatesOneChunkPer256Events(t *testing.T) {
	var l Log
	tick := uint64(0)
	record := func() {
		tick++
		l.Send(tick)
		tick++
		l.Recv(tick, tick-1)
	}
	record() // opens the first chunk
	// The warm-up call and the runs together stay inside it.
	if allocs := testing.AllocsPerRun(chunkEvents/2-2, record); allocs != 0 {
		t.Errorf("a record inside a chunk allocated %.0f times, want 0", allocs)
	}
	fill := func() {
		for i := 0; i < chunkEvents/2; i++ {
			record()
		}
	}
	if allocs := testing.AllocsPerRun(100, fill); allocs != 1 {
		t.Errorf("%d events allocated %.0f times, want 1 (the chunk)", chunkEvents, allocs)
	}
}

// truncateStep builds a log of 10^5 events ending in a checkpoint and
// returns the recovery session's work on it: a 64-event tail recorded and
// cut back to that checkpoint. The tail stays inside the last chunk.
func truncateStep(tb testing.TB) func() {
	const events, tail = 100_000, 64
	var l Log
	tick := uint64(0)
	for l.Len() < events-1 {
		tick++
		if l.Len()%50 == 0 {
			l.Checkpoint(tick)
		} else {
			l.Send(tick)
		}
	}
	tick++
	l.Checkpoint(tick)
	line := l.Checkpoints()
	return func() {
		for k := 0; k < tail; k++ {
			tick++
			l.Send(tick)
		}
		sink += l.CutAfterCheckpoint(line)
		if l.Len() != events {
			tb.Fatalf("log holds %d events after the cut, want %d", l.Len(), events)
		}
	}
}

func TestSessionTruncateAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(200, truncateStep(t)); allocs != 0 {
		t.Errorf("recording and cutting a 64-event tail allocated %.0f times, want 0", allocs)
	}
}

// BenchmarkRecord is one message's history: a send event in one log and a
// receive event in another. The cost does not depend on n.
func BenchmarkRecord(b *testing.B) {
	logs := make([]Log, 4)
	tick := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick++
		logs[i%4].Send(tick)
		tick++
		logs[(i+1)%4].Recv(tick, tick-1)
	}
	sink += logs[0].Len()
}

// BenchmarkSessionTruncate: ns/op is 64 records plus the cut; the 10^5
// events before the tail cost nothing.
func BenchmarkSessionTruncate(b *testing.B) {
	step := truncateStep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
