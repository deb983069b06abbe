package logstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// FuzzLogReplay feeds arbitrary bytes to the replay path as a lone segment
// file: every input must either open into a self-consistent store or fail
// loudly with storage.ErrCorrupt — a silent half-state is the one outcome
// crash recovery may never produce. When the open succeeds, a second open
// of the same directory must agree with the first (replay is deterministic
// and any torn-tail truncation is physical).
func FuzzLogReplay(f *testing.F) {
	// Seed with a genuine log (saves, a tombstone, a supersede) and a few
	// broken variants of it.
	seedDir := f.TempDir()
	s, err := Open(seedDir, Options{NoCompact: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := s.Save(ckpt(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Delete(11); err != nil {
		f.Fatal(err)
	}
	if err := s.Save(ckpt(11)); err != nil {
		f.Fatal(err)
	}
	if err := s.Delete(4); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(segPath(seedDir, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:segHdrLen])
	f.Add([]byte{})
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000000.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoCompact: true})
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("open failed without ErrCorrupt: %v", err)
			}
			return
		}
		view := checkConsistent(t, s)
		s.Close()
		again, err := Open(dir, Options{NoCompact: true})
		if err != nil {
			t.Fatalf("second open of a replayed log failed: %v", err)
		}
		if again.TornTails() != 0 {
			t.Fatalf("second open still torn: truncation was not physical")
		}
		view2 := checkConsistent(t, again)
		again.Close()
		if len(view) != len(view2) {
			t.Fatalf("reopen changed the view: %d vs %d records", len(view), len(view2))
		}
		for idx, cp := range view {
			got := view2[idx]
			if !got.DV.Equal(cp.DV) || !bytes.Equal(got.State, cp.State) {
				t.Fatalf("reopen changed checkpoint %d", idx)
			}
		}
	})
}

// checkConsistent asserts the structural invariants of an opened store and
// returns its full contents.
func checkConsistent(t *testing.T, s *LogStore) map[int]storage.Checkpoint {
	t.Helper()
	idxs := s.Indices()
	for i := 1; i < len(idxs); i++ {
		if idxs[i] <= idxs[i-1] {
			t.Fatalf("Indices not strictly ascending: %v", idxs)
		}
	}
	st := s.Stats()
	if st.Live != len(idxs) {
		t.Fatalf("Stats.Live = %d but Indices has %d", st.Live, len(idxs))
	}
	view := make(map[int]storage.Checkpoint, len(idxs))
	bytesLive := 0
	for _, idx := range idxs {
		cp, err := s.Load(idx)
		if err != nil {
			t.Fatalf("Load(%d) of an indexed checkpoint: %v", idx, err)
		}
		if cp.Index != idx {
			t.Fatalf("Load(%d) returned index %d", idx, cp.Index)
		}
		view[idx] = cp
		bytesLive += len(cp.State)
	}
	if st.LiveBytes != bytesLive {
		t.Fatalf("Stats.LiveBytes = %d, states sum to %d", st.LiveBytes, bytesLive)
	}
	return view
}
