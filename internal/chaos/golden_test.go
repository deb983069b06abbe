package chaos_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/runtime"
)

// quietBaseGolden holds the flight recording of one deterministic run whose
// baseline network injects nothing (no loss, no delay) and whose plan opens
// some cycles with a loss burst. The sweep's chaos cells all run on a lossy
// baseline, so this is the run that pins the seeded loss stream across quiet
// stretches: a send on a quiet network draws nothing, and SetNetwork replays
// the skipped draws before the burst's first loss decision. Every event but
// its wall-clock stamp is recorded, so a burst that drops a different
// message moves the file. The file was recorded before quiet sends stopped
// drawing, and is not regenerated: a change that moves it has changed the
// seeded stream.
const quietBaseGolden = "testdata/quiet_base.golden"

// quietBaseRun runs the pinned plan and renders its result and recording.
func quietBaseRun(t *testing.T) []byte {
	t.Helper()
	rec := obs.NewRecorder(1 << 16)
	cfg := lgcConfig(true)
	cfg.Net = runtime.NetworkOptions{Seed: 7}
	cfg.Obs = obs.Options{Recorder: rec}
	plan, err := chaos.NewPlan(chaos.PlanOptions{N: 4, Pattern: chaos.Single, Cycles: 6, Ops: 40, Seed: 5, PBurst: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := chaos.Run(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("flight recorder dropped %d events", rec.Dropped())
	}
	var b bytes.Buffer
	for _, s := range plan.Steps {
		fmt.Fprintf(&b, "step %d procs=%v ops=%d loss=%g\n", s.Kind, s.Procs, s.Ops, s.Loss)
	}
	res.Latency, res.HealLatency = 0, 0
	fmt.Fprintf(&b, "result %+v\n", res)
	for _, ev := range rec.Events() {
		fmt.Fprintf(&b, "%s p=%d msg=%d aux=%d clock=%d\n", ev.Kind, ev.P, ev.Msg, ev.Aux, ev.Clock)
	}
	return b.Bytes()
}

func TestChaosQuietBaseMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(quietBaseGolden))
	if err != nil {
		t.Fatal(err)
	}
	if got := quietBaseRun(t); !bytes.Equal(got, want) {
		t.Fatalf("the quiet-baseline run moved; first differing line:\n%s", firstDiff(want, got))
	}
}

// firstDiff renders the first line where two recordings part.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d\n  golden: %s\n  got:    %s", i+1, wl, gl)
		}
	}
	return "(none)"
}
