// Quickstart: run a small message-passing application under FDAS
// checkpointing with RDT-LGC garbage collection and inspect what stable
// storage holds afterwards.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	rdt "repro"
)

func main() {
	const n = 4

	// A system is n middleware processes; FDAS takes the forced checkpoints
	// that guarantee rollback-dependency trackability and RDT-LGC collects
	// obsolete checkpoints using nothing but the piggybacked timestamps.
	sys, err := rdt.New(n,
		rdt.WithProtocol(rdt.FDAS),
		rdt.WithCollector(rdt.RDTLGC))
	if err != nil {
		log.Fatal(err)
	}

	// Drive it with a random application: 2000 operations of sends,
	// receives and autonomous basic checkpoints.
	script := rdt.Workload(rdt.Uniform, rdt.WorkloadOptions{N: n, Ops: 2000, Seed: 42})
	if err := sys.Run(script); err != nil {
		log.Fatal(err)
	}

	st := sys.Stats()
	fmt.Printf("executed: %d basic + %d forced checkpoints, %d messages\n",
		st.Basic, st.Forced, st.Delivered)

	// Section 4.5 of the paper: a process never retains more than n stable
	// checkpoints under RDT-LGC.
	fmt.Println("\nstable storage per process (bound = n = 4):")
	for i, retained := range sys.RetainedCounts() {
		fmt.Printf("  p%d: %d checkpoints %v\n", i+1, retained, sys.Retained(i))
	}

	// The ground-truth oracle confirms the pattern is RD-trackable and that
	// everything collected was indeed obsolete.
	oracle := sys.Oracle()
	fmt.Printf("\npattern is RD-trackable: %v\n", oracle.IsRDT())
	obsolete, kept := oracle.ObsoleteStored(sys.Retained)
	fmt.Printf("obsolete checkpoints: %d total, %d not yet identifiable from causal knowledge\n",
		obsolete, kept)
	fmt.Printf("asynchronous collection ratio: %.4f\n",
		float64(obsolete-kept)/float64(obsolete))
}
