package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/vclock"
)

// TestValidateRejectsDamagedFrames pins the semantic check the receive
// path runs after decode: structurally sound frames whose contents do not
// fit the cluster must be dropped before they can index a kernel's
// dependency vector out of range.
func TestValidateRejectsDamagedFrames(t *testing.T) {
	const n = 4
	good := Message{From: 0, To: 1, DV: []int{1, 2, 3, 4}}
	if err := good.Validate(n); err != nil {
		t.Fatalf("valid full frame rejected: %v", err)
	}
	goodSparse := Message{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: 3, V: 9}}}
	if err := goodSparse.Validate(n); err != nil {
		t.Fatalf("valid sparse frame rejected: %v", err)
	}
	bad := []Message{
		{From: -1, To: 1, DV: make([]int, n)},                            // endpoint out of range
		{From: 0, To: n, DV: make([]int, n)},                             // endpoint out of range
		{From: 0, To: 1, DV: make([]int, n-1)},                           // wrong-size vector
		{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: n}}},    // entry key outside cluster
		{From: 0, To: 1, Sparse: true, Entries: vclock.Delta{{K: 1000}}}, // decode accepts, cluster must not
	}
	for i, m := range bad {
		if err := m.Validate(n); err == nil {
			t.Errorf("damaged frame %d passed validation: %+v", i, m)
		}
	}
}

// FuzzDecode checks the wire-frame parser never panics and every accepted
// frame round-trips.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("not a frame"))
	f.Add(Encode(Message{From: 1, To: 2, Msg: 3, Epoch: 4, Index: 5, DV: []int{6, 7}}))
	f.Add(Encode(Message{From: 1, To: 2, Msg: 3, Sparse: true,
		Entries: vclock.Delta{{K: 0, V: 9}, {K: 5, V: 2}}, Payload: []byte("p")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decode(data)
		if err != nil {
			return
		}
		re, err := decode(appendEncode(nil, &m))
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if m.DV == nil {
			m.DV = []int{}
		}
		if re.DV == nil {
			re.DV = []int{}
		}
		if m.Entries == nil {
			m.Entries = vclock.Delta{}
		}
		if re.Entries == nil {
			re.Entries = vclock.Delta{}
		}
		if m.Payload == nil {
			m.Payload = []byte{}
		}
		if re.Payload == nil {
			re.Payload = []byte{}
		}
		if !reflect.DeepEqual(m, re) {
			t.Fatalf("round trip changed the frame: %+v vs %+v", m, re)
		}
	})
}

// chunkConn is a net.Conn whose reads return a byte stream in pieces: the
// i-th Read returns at most cuts[i] bytes (any size once cuts run out), then
// io.EOF once the stream is spent.
type chunkConn struct {
	net.Conn
	data []byte
	cuts []int
}

func (c *chunkConn) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data))
	if len(c.cuts) > 0 {
		n, c.cuts = min(n, c.cuts[0]), c.cuts[1:]
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

func (c *chunkConn) Close() error { return nil }

// streamFrames turns fuzz bytes into frames, four bytes a frame: a kind
// byte (bit 0 sparse, bit 1 unpadded, bit 2 the one payload over 64 KiB),
// a piggyback length, and a two-byte payload length, so payloads of odd
// lengths and frames that are not word multiples come up. It returns the
// messages and their stream bytes as a sender writes them (an unpadded
// frame as a sender that does not pad would).
func streamFrames(spec []byte) ([]Message, []byte) {
	var msgs []Message
	var stream []byte
	big := false
	for i := 0; i+4 <= len(spec); i += 4 {
		kind, k, pl := spec[i], int(spec[i+1]%40), int(spec[i+2])|int(spec[i+3]&3)<<8
		if kind&4 != 0 && !big {
			big, pl = true, 70_000+pl
		}
		m := Message{From: 0, To: 1, Msg: len(msgs), Seq: uint64(len(msgs)), Payload: make([]byte, pl)}
		for j := range m.Payload {
			m.Payload[j] = byte(i + j)
		}
		if kind&1 != 0 {
			m.Sparse, m.Ord = true, i
			m.Entries = make(vclock.Delta, k)
			for j := range m.Entries {
				m.Entries[j] = vclock.Entry{K: 3 * j, V: i + j}
			}
		} else {
			m.DV = make([]int, k)
			for j := range m.DV {
				m.DV[j] = i * j
			}
		}
		msgs = append(msgs, m)
		if kind&2 != 0 {
			stream = binary.LittleEndian.AppendUint64(stream, uint64(encodedSize(&m)))
			stream = appendEncode(stream, &m)
		} else {
			stream = appendFrame(stream, &m)
		}
	}
	return msgs, stream
}

// FuzzStreamFraming drives the mesh's reader (readLoop) over one direction
// of a connection, cut at fuzz-chosen read boundaries: the frames
// streamFrames builds, then arbitrary trailing bytes. Every frame arrives
// intact and in order; the trailing bytes never panic the reader, never
// make it allocate past the frame cap, and end the stream in OnFrameError
// or a clean EOF — clean only if nothing was left undecoded.
func FuzzStreamFraming(f *testing.F) {
	small := bytes.Repeat([]byte{1, 0, 0, 0}, 200) // 200 empty sparse frames: more than 64 a read
	f.Add(small, []byte{}, []byte{})
	// Frames of 5 and 601 bytes of payload, the stream cut so one straddles
	// the end of the first 4 KiB read.
	f.Add(bytes.Repeat([]byte{0, 3, 5, 0, 1, 7, 89, 2}, 12), []byte{250, 250, 250, 7, 1, 255}, []byte{})
	f.Add([]byte{2, 1, 13, 0, 4, 2, 1, 0, 3, 0, 7, 0}, []byte{9, 40}, []byte{})       // unpadded, over 64 KiB, sparse unpadded
	f.Add([]byte{0, 4, 16, 0}, []byte{}, []byte{64, 0, 0, 0, 0, 0, 0, 0, 0x45, 0x52}) // a torn last frame
	f.Add([]byte{}, []byte{3}, []byte("not a frame at all, not even a length prefix"))
	f.Fuzz(func(t *testing.T, spec, cuts, tail []byte) {
		msgs, data := streamFrames(spec)
		data = append(data, tail...)
		conn := &chunkConn{data: data}
		for _, c := range cuts {
			conn.cuts = append(conn.cuts, 1+int(c)*int(c)/4)
		}
		var got []Message
		var frameErr error
		mesh := &TCP{n: 2, delivered: make([]atomic.Int64, 4), closed: make(chan struct{})}
		pc := newPairConn(0, 1)
		mesh.deliver = func(ms []Message) {
			for i := range ms {
				got = append(got, cloneMessage(ms[i]))
			}
		}
		mesh.OnFrameError = func(_, _ int, err error) { frameErr = err }

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mesh.readLoop(conn, pc, &pc.dirs[0])
		runtime.ReadMemStats(&after)

		if len(got) < len(msgs) {
			t.Fatalf("%d of %d frames delivered (frame error: %v)", len(got), len(msgs), frameErr)
		}
		for i := range msgs {
			if !reflect.DeepEqual(got[i], msgs[i]) {
				t.Fatalf("frame %d:\n got %+v\nwant %+v", i, got[i], msgs[i])
			}
		}
		if len(tail) == 0 && (frameErr != nil || len(got) != len(msgs)) {
			t.Fatalf("a clean stream delivered %d of %d frames, frame error %v", len(got), len(msgs), frameErr)
		}
		if frameErr == nil && len(conn.data) != 0 {
			t.Fatalf("the reader stopped with %d bytes unread and no frame error", len(conn.data))
		}
		// The buffer's doubling chain, one frame-sized buffer, the batch,
		// and a copy of every frame that is not word-aligned.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrame+3*maxReadBuf+4*uint64(len(data)) {
			t.Fatalf("reading a %d-byte stream allocated %d bytes", len(data), grew)
		}
	})
}
