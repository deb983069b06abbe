// Bank: a transactional application on the checkpointing middleware. Branch
// servers exchange money transfers over a real TCP loopback mesh while FDAS
// takes the forced checkpoints that keep the pattern RD-trackable and
// RDT-LGC collects obsolete checkpoints. A branch crashes mid-run; the
// recovery line guarantees the fundamental invariant of consistent global
// checkpoints: no transfer is ever applied on the credit side without its
// debit — money can be lost with in-transit messages (the model permits
// loss), but never created.
//
//	go run ./examples/bank
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/runtime"
)

const (
	branches = 4
	initial  = int64(1000)
)

func main() {
	stack, err := core.NewStack("FDAS", core.RDTLGC)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := runtime.NewCluster(runtime.Config{
		N:        branches,
		TCP:      true,
		Protocol: stack.Protocol,
		LocalGC:  stack.Local,
		NewApp: func(self int) app.App {
			kv := app.NewKV()
			kv.Set("balance", initial)
			return kv
		},
		OnDeliver: func(self int, a app.App, payload []byte) {
			if len(payload) == 8 {
				a.(*app.KV).Add("balance", int64(binary.LittleEndian.Uint64(payload)))
			}
		},
		Net: runtime.NetworkOptions{MaxDelay: time.Millisecond, Seed: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = cluster.Close() }()

	fmt.Printf("%d branches, %d initial balance each (total %d), transfers over TCP\n",
		branches, initial, initial*branches)

	work := func(rounds int, seed int64) {
		var wg sync.WaitGroup
		for b := 0; b < branches; b++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(id)))
				node := cluster.Node(id)
				for k := 0; k < rounds; k++ {
					to := rng.Intn(branches - 1)
					if to >= id {
						to++
					}
					amount := int64(1 + rng.Intn(25))
					payload := make([]byte, 8)
					binary.LittleEndian.PutUint64(payload, uint64(amount))
					err := node.UpdateAndSend(to, func(a app.App) {
						a.(*app.KV).Add("balance", -amount)
					}, payload)
					if err != nil {
						log.Printf("branch %d: %v", id+1, err)
						return
					}
					if rng.Intn(5) == 0 {
						if err := node.Checkpoint(); err != nil {
							log.Printf("branch %d: %v", id+1, err)
							return
						}
					}
				}
			}(b)
		}
		wg.Wait()
		cluster.Quiesce()
	}

	work(100, 10)
	report(cluster, "after phase 1 (quiesced)")

	rep, err := cluster.Recover([]int{2}, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbranch 3 crashed; recovery line %v, rolled back %v\n", rep.Line, rep.RolledBack)
	report(cluster, "after recovery")

	work(100, 99)
	report(cluster, "after phase 2 (quiesced)")
	fmt.Println("\ninvariant: the total never exceeds the initial total — consistency")
	fmt.Println("admits losing in-flight transfers on a crash but never duplicates one.")
}

func report(c *runtime.Cluster, title string) {
	var total int64
	fmt.Printf("%s:\n", title)
	for b := 0; b < branches; b++ {
		v, _ := c.Node(b).App().(*app.KV).Get("balance")
		_, _, st := c.Node(b).Stats()
		fmt.Printf("  branch %d: balance %5d, %d checkpoints stored (bound %d)\n",
			b+1, v, st.Live, branches)
		total += v
	}
	fmt.Printf("  system total: %d (initial %d)\n", total, initial*branches)
}
