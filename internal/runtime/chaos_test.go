package runtime_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/ccp"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/runtime"
	"repro/internal/storage"
)

// TestChaosCrashRefusesWork checks the crash semantics: a crashed process
// refuses every application-facing operation with ErrCrashed, messages
// addressed to it are lost, and the survivors keep running.
func TestChaosCrashRefusesWork(t *testing.T) {
	c := lgcCluster(t, 3, runtime.NetworkOptions{Seed: 5})
	driveRandom(t, c, 20, 1)

	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Crash(1); err == nil {
		t.Error("double crash should be rejected")
	}
	if got := c.Down(); len(got) != 1 || got[0] != 1 {
		t.Errorf("Down() = %v, want [1]", got)
	}
	if !c.Node(1).Down() {
		t.Error("node 1 should report down")
	}
	if err := c.Node(1).Send(0); !errors.Is(err, runtime.ErrCrashed) {
		t.Errorf("send from crashed process: %v, want ErrCrashed", err)
	}
	if err := c.Node(1).Checkpoint(); !errors.Is(err, runtime.ErrCrashed) {
		t.Errorf("checkpoint on crashed process: %v, want ErrCrashed", err)
	}

	// Survivors can still talk to each other and into the hole; messages
	// to the crashed process are silently lost.
	before := len(c.History().Ops)
	if err := c.Node(0).Send(1); err != nil {
		t.Fatalf("send to crashed process should be accepted by the network: %v", err)
	}
	if err := c.Node(0).Send(2); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	hist := c.History()
	for _, op := range hist.Ops[before:] {
		if op.Kind == ccp.OpRecv && op.P == 1 {
			t.Error("crashed process received a message")
		}
	}
}

// TestChaosCrashRestartRehydrates crashes a process mid-execution, runs
// survivor traffic into and out of the hole, restarts, and checks the
// rehydrated state agrees with stable storage and the replayed history.
func TestChaosCrashRestartRehydrates(t *testing.T) {
	const n = 4
	c := lgcCluster(t, n, runtime.NetworkOptions{MaxDelay: 100 * time.Microsecond, Seed: 9})
	driveRandom(t, c, 50, 13)

	victim := 2
	stored := c.Node(victim).Store().Indices()
	if len(stored) == 0 {
		t.Fatal("victim has no stable checkpoint")
	}
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}

	// Survivors keep working while the victim is down.
	for _, p := range []int{0, 1, 3} {
		if err := c.Node(p).Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := c.Node(p).Send(victim); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce()

	oracle := c.Oracle()
	wantLine := oracle.RecoveryLine([]int{victim})

	rep, err := c.Restart(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restarted) != 1 || rep.Restarted[0] != victim {
		t.Errorf("Restarted = %v, want [%d]", rep.Restarted, victim)
	}
	for i := range wantLine {
		if rep.Line[i] != wantLine[i] {
			t.Fatalf("restored line %v, oracle line %v", rep.Line, wantLine)
		}
	}
	if c.Node(victim).Down() {
		t.Fatal("victim still down after restart")
	}
	if got := c.Node(victim).LastStable(); got != rep.Line[victim] {
		t.Errorf("victim lastS = %d, want line component %d", got, rep.Line[victim])
	}
	// The resumed vector is the stored vector of the line component with
	// the self entry advanced past it.
	cp, err := c.Node(victim).Store().Load(rep.Line[victim])
	if err != nil {
		t.Fatal(err)
	}
	dv := c.Node(victim).CurrentDV()
	for j := range dv {
		want := cp.DV[j]
		if j == victim {
			want++
		}
		if dv[j] != want {
			t.Fatalf("victim DV %v, want %v advanced at self", dv, cp.DV)
		}
	}

	// The cluster accepts new work from everyone after the restart and the
	// post-recovery pattern stays RD-trackable.
	driveRandom(t, c, 20, 17)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-restart execution not RDT: %v", v)
	}
}

// TestChaosCorrelatedRestart crashes several processes at once and restarts
// them in one session.
func TestChaosCorrelatedRestart(t *testing.T) {
	const n = 5
	c := lgcCluster(t, n, runtime.NetworkOptions{Seed: 21})
	driveRandom(t, c, 40, 29)

	for _, p := range []int{1, 3} {
		if err := c.Crash(p); err != nil {
			t.Fatal(err)
		}
	}
	c.Quiesce()
	oracle := c.Oracle()
	wantLine := oracle.RecoveryLine([]int{1, 3})

	rep, err := c.Restart(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Restarted) != 2 {
		t.Fatalf("Restarted = %v, want [1 3]", rep.Restarted)
	}
	for i := range wantLine {
		if rep.Line[i] != wantLine[i] {
			t.Fatalf("restored line %v, oracle line %v", rep.Line, wantLine)
		}
	}
	driveRandom(t, c, 20, 31)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-restart execution not RDT: %v", v)
	}
}

// TestChaosSessionGuards pins the lifecycle contract: Recover refuses while
// a process is down, Restart refuses with none down, and rehydration works
// through a genuine on-disk store.
func TestChaosSessionGuards(t *testing.T) {
	c := lgcCluster(t, 3, runtime.NetworkOptions{Seed: 2})
	driveRandom(t, c, 15, 3)

	if _, err := c.Restart(true); err == nil {
		t.Error("Restart with no crashed process should fail")
	}
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover([]int{1}, true); err == nil {
		t.Error("Recover should refuse while a process is down")
	}
	if _, err := c.Restart(true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover([]int{1}, true); err != nil {
		t.Fatalf("Recover after restart: %v", err)
	}
}

// flakyStore injects Load failures, modeling stable storage that breaks
// between the crash and the restart.
type flakyStore struct {
	storage.Store
	failLoad bool
}

func (s *flakyStore) Load(index int) (storage.Checkpoint, error) {
	if s.failLoad {
		return storage.Checkpoint{}, errors.New("injected load failure")
	}
	return s.Store.Load(index)
}

// TestChaosFailedRestartLeavesProcessesDown pins the failure atomicity of
// Restart: when rehydration of one process fails, every crashed process —
// including any already rehydrated in the same session — is left crashed,
// so the cluster resumes in its pre-call state and Restart can be retried.
func TestChaosFailedRestartLeavesProcessesDown(t *testing.T) {
	flaky := &flakyStore{}
	c, err := runtime.NewCluster(runtime.Config{
		N: 3,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		NewStore: func(self int) (storage.Store, error) {
			st := storage.Store(storage.NewMemStore())
			if self == 2 {
				flaky.Store = st
				st = flaky
			}
			return st, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	driveRandom(t, c, 20, 19)

	for _, p := range []int{1, 2} {
		if err := c.Crash(p); err != nil {
			t.Fatal(err)
		}
	}
	flaky.failLoad = true
	if _, err := c.Restart(true); err == nil {
		t.Fatal("restart should fail when rehydration cannot load a checkpoint")
	}
	// p1 rehydrated before p2 failed; the failed session must have
	// re-crashed it.
	if got := c.Down(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Down() = %v after failed restart, want [1 2]", got)
	}
	if err := c.Node(1).Send(0); !errors.Is(err, runtime.ErrCrashed) {
		t.Errorf("half-restarted process accepted work: %v", err)
	}

	flaky.failLoad = false
	if _, err := c.Restart(true); err != nil {
		t.Fatalf("retry after the store recovered: %v", err)
	}
	driveRandom(t, c, 10, 23)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-retry execution not RDT: %v", v)
	}
}

// TestChaosLogStoreRestart runs the crash/restart lifecycle against
// on-disk stores: rehydration reads back exactly what Save persisted.
func TestChaosLogStoreRestart(t *testing.T) {
	c, err := runtime.NewCluster(runtime.Config{
		N: 3,
		LocalGC: func(self, n int, st storage.Store) gc.Local {
			return core.New(self, n, st)
		},
		NewStore: logStores(t.TempDir()),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	driveRandom(t, c, 30, 41)

	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	c.Quiesce()
	rep, err := c.Restart(true)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Node(2).LastStable(); got != rep.Line[2] {
		t.Errorf("restarted lastS = %d, want %d", got, rep.Line[2])
	}
	driveRandom(t, c, 10, 43)
	if v, bad := c.Oracle().FirstRDTViolation(); bad {
		t.Fatalf("post-restart execution not RDT: %v", v)
	}
}
