// Command rdtsim runs a parameterized checkpointing simulation and prints
// the resulting garbage-collection statistics.
//
// Example:
//
//	rdtsim -n 8 -ops 5000 -workload uniform -protocol FDAS -gc rdt-lgc -crash 3
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"

	rdt "repro"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/workload"
)

func main() {
	var (
		n       = flag.Int("n", 4, "number of processes")
		ops     = flag.Int("ops", 2000, "application operations to simulate")
		seed    = flag.Int64("seed", 1, "workload seed")
		wl      = flag.String("workload", "uniform", "workload: uniform|ring|client-server|bursty|all-to-all")
		proto   = flag.String("protocol", "FDAS", "protocol: "+strings.Join(protocol.Names(), "|"))
		gcName  = flag.String("gc", core.RDTLGC, "collector: "+strings.Join(core.CollectorNames(), "|"))
		pc      = flag.Float64("pcheckpoint", 0.2, "basic checkpoint probability")
		crash   = flag.Int("crash", -1, "crash this process after the run and recover (-1 = none)")
		useLI   = flag.Bool("li", true, "use global last-interval information during recovery")
		verbose = flag.Bool("v", false, "print per-process retained checkpoint indices")
		live    = flag.Bool("live", false, "run on the concurrent goroutine runtime instead of the deterministic simulator")
		tcp     = flag.Bool("tcp", false, "with -live: route messages over a TCP loopback mesh")
		store   = flag.String("store", "mem", "stable-storage backend: mem|log")
		dir     = flag.String("store-dir", "", "root directory for on-disk backends (default: a temp dir)")
	)
	flag.Parse()

	storeOpts, cleanup, err := storageOptions(*store, *dir)
	exitOn(err)
	defer cleanup()
	p, err := parseProtocol(*proto)
	exitOn(err)
	col, err := parseCollector(*gcName)
	exitOn(err)

	if *live {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workload" {
				fmt.Fprintln(os.Stderr, "rdtsim: -workload does not apply to -live: the live drive runs no script")
				os.Exit(2)
			}
		})
		exitOn(runLive(os.Stdout, liveRun{
			n: *n, ops: *ops, crash: *crash, seed: *seed, pc: *pc,
			tcp: *tcp, useLI: *useLI, proto: p, col: col,
		}, storeOpts))
		return
	}

	kind, err := parseWorkload(*wl)
	exitOn(err)

	sys, err := rdt.New(*n, append(storeOpts, rdt.WithProtocol(p), rdt.WithCollector(col))...)
	exitOn(err)
	defer func() { _ = sys.Close() }()
	script := rdt.Workload(kind, rdt.WorkloadOptions{N: *n, Ops: *ops, Seed: *seed, PCheckpoint: *pc})
	exitOn(sys.Run(script))

	st := sys.Stats()
	fmt.Printf("workload=%s protocol=%s gc=%s n=%d ops=%d\n", kind, p, col, *n, *ops)
	fmt.Printf("checkpoints: basic=%d forced=%d (forced/basic = %.2f)\n",
		st.Basic, st.Forced, ratio(st.Forced, st.Basic))
	fmt.Printf("messages:    sent=%d delivered=%d\n", st.Sends, st.Delivered)

	total, peak := 0, 0
	for i := 0; i < *n; i++ {
		s := sys.StorageStats(i)
		total += s.Live
		peak += s.Peak
		if *verbose {
			fmt.Printf("  p%d retains %v\n", i+1, sys.Retained(i))
		}
	}
	fmt.Printf("storage:     live=%d (%.2f/process, bound %d) peak=%d collected=%d\n",
		total, float64(total)/float64(*n), *n, peak, collectedTotal(sys, *n))

	oracle := sys.Oracle()
	obsolete, kept := 0, 0
	for i := 0; i < *n; i++ {
		retained := map[int]bool{}
		for _, idx := range sys.Retained(i) {
			retained[idx] = true
		}
		for g := 0; g <= oracle.LastStable(i); g++ {
			if oracle.Obsolete(i, g) {
				obsolete++
				if retained[g] {
					kept++
				}
			}
		}
	}
	fmt.Printf("oracle:      obsolete=%d still-stored=%d collection-ratio=%.4f rdt=%v\n",
		obsolete, kept, ratio(obsolete-kept, obsolete), oracle.IsRDT())

	if *crash >= 0 {
		rep, err := sys.Recover([]int{*crash}, *useLI)
		exitOn(err)
		fmt.Printf("recovery:    crashed p%d, line=%v, rolled back %v, lost %d checkpoints\n",
			*crash+1, rep.Line, rep.RolledBack, rep.LostCheckpoints)
		total = 0
		for i := 0; i < *n; i++ {
			total += len(sys.Retained(i))
		}
		fmt.Printf("post-recovery storage: live=%d\n", total)
	}
}

// storageOptions resolves the -store/-store-dir flags to facade options; an
// on-disk backend without an explicit directory gets a temp dir the cleanup
// removes.
func storageOptions(store, dir string) ([]rdt.Option, func(), error) {
	cleanup := func() {}
	b, err := rdt.ParseBackend(store)
	if err != nil {
		return nil, cleanup, err
	}
	if b == rdt.BackendMem {
		return nil, cleanup, nil
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "rdtsim-store-")
		if err != nil {
			return nil, cleanup, err
		}
		dir, cleanup = tmp, func() { os.RemoveAll(tmp) }
	}
	return []rdt.Option{rdt.WithStorage(b, dir)}, cleanup, nil
}

// liveRun is what the flags ask of a -live run.
type liveRun struct {
	n, ops, crash int
	seed          int64
	pc            float64
	tcp, useLI    bool
	proto         rdt.Protocol
	col           rdt.Collector
}

// runLive drives the goroutine runtime with one worker per process and
// prints its report to w.
func runLive(w io.Writer, r liveRun, storeOpts []rdt.Option) error {
	n, ops, seed := r.n, r.ops, r.seed
	opts := append(storeOpts, rdt.WithProtocol(r.proto), rdt.WithCollector(r.col))
	cluster, err := rdt.NewCluster(n, rdt.Network{TCP: r.tcp, Seed: seed}, opts...)
	if err != nil {
		return err
	}
	defer func() { _ = cluster.Close() }()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(id)))
			node := cluster.Node(id)
			for k := 0; k < ops/n; k++ {
				if rng.Float64() < r.pc {
					if err := node.Checkpoint(); err != nil {
						fmt.Fprintf(os.Stderr, "p%d: %v\n", id+1, err)
						return
					}
					continue
				}
				to := rng.Intn(n - 1)
				if to >= id {
					to++
				}
				if err := node.Send(to); err != nil {
					fmt.Fprintf(os.Stderr, "p%d: %v\n", id+1, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	cluster.Quiesce()

	transportName := "direct"
	if r.tcp {
		transportName = "tcp"
	}
	fmt.Fprintf(w, "live cluster: protocol=%s gc=%s n=%d ops≈%d pcheckpoint=%g transport=%s\n",
		r.proto, r.col, n, ops, r.pc, transportName)
	total := 0
	for i := 0; i < n; i++ {
		basic, forced, st := cluster.Node(i).Stats()
		fmt.Fprintf(w, "  p%d: %d basic + %d forced checkpoints, %d stored (bound %d)\n",
			i+1, basic, forced, st.Live, n)
		total += st.Live
	}
	oracle := cluster.Oracle()
	fmt.Fprintf(w, "stored total: %d; linearized events: %d; RD-trackable: %v\n",
		total, len(cluster.History().Ops), oracle.IsRDT())

	if r.crash >= 0 && r.crash < n {
		rep, err := cluster.Recover([]int{r.crash}, r.useLI)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "recovery: crashed p%d, line=%v, rolled back %v\n", r.crash+1, rep.Line, rep.RolledBack)
	}
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		if a == 0 {
			return 0
		}
		return 1
	}
	return float64(a) / float64(b)
}

func collectedTotal(sys *rdt.System, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		c += sys.StorageStats(i).Collected
	}
	return c
}

func parseWorkload(s string) (rdt.WorkloadKind, error) {
	for _, k := range workload.Kinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("rdtsim: unknown workload %q", s)
}

// parseProtocol and parseCollector match a flag value, in any case, to the
// facade constant whose String it is.
func parseProtocol(s string) (rdt.Protocol, error) {
	for p := rdt.FDAS; p <= rdt.NoProtocol; p++ {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("rdtsim: unknown protocol %q", s)
}

func parseCollector(s string) (rdt.Collector, error) {
	for c := rdt.RDTLGC; c <= rdt.RecoveryLineGC; c++ {
		if strings.EqualFold(c.String(), s) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("rdtsim: unknown collector %q", s)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
