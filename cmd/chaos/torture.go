package main

import (
	"fmt"
	"os"

	"repro/internal/chaos"
)

// runTorture executes the storage crash-torture matrix from the command
// line — the same harness the CI torture lane runs via go test — against
// the log store, the one backend with stable bytes to tear.
func runTorture(seeds, ops int) error {
	for seed := int64(1); seed <= int64(seeds); seed++ {
		dir, err := os.MkdirTemp("", "rdt-torture-")
		if err != nil {
			return err
		}
		res, err := chaos.Torture(chaos.TortureConfig{Dir: dir, Ops: ops, Seed: seed})
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("torture log seed %d: %w (after %s)", seed, err, res)
		}
		fmt.Printf("torture log  seed %d: %s\n", seed, res)
	}
	return nil
}
