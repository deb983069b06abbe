package storage

import (
	"sync"
	"testing"

	"repro/internal/vclock"
)

// TestMemStoreConcurrentAccess hammers one store from many goroutines; run
// with -race to validate the locking.
func TestMemStoreConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	const workers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * per
			for i := 0; i < per; i++ {
				idx := base + i
				if err := s.Save(Checkpoint{Index: idx, DV: vclock.New(2)}); err != nil {
					t.Errorf("save %d: %v", idx, err)
					return
				}
				if _, err := s.Load(idx); err != nil {
					t.Errorf("load %d: %v", idx, err)
					return
				}
				s.Stats()
				s.Indices()
				if i%2 == 0 {
					if err := s.Delete(idx); err != nil {
						t.Errorf("delete %d: %v", idx, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Saved != workers*per {
		t.Errorf("Saved = %d, want %d", st.Saved, workers*per)
	}
	if st.Live != workers*per/2 {
		t.Errorf("Live = %d, want %d", st.Live, workers*per/2)
	}
}
