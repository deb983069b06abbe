package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
)

// TestNewStackCoversEveryPair resolves every protocol × collector name of
// the two tables and checks what each pair promises: RDT exactly for the
// RDT protocols, the n-bound exactly for RDT-LGC under one of them, and the
// live engines' refusal exactly for the global collectors.
func TestNewStackCoversEveryPair(t *testing.T) {
	rdt := map[string]bool{"FDAS": true, "FDI": true, "CBR": true, "Russell": true}
	global := map[string]bool{core.SyncOpt: true, core.RecoveryLineGC: true}
	for _, p := range protocol.Names() {
		for _, c := range core.CollectorNames() {
			s, err := core.NewStack(p, c)
			if err != nil {
				t.Fatalf("NewStack(%q, %q): %v", p, c, err)
			}
			if got := s.Protocol(0).Name(); got != p || s.Collector != c {
				t.Errorf("NewStack(%q, %q) built %s under %s", p, c, got, s.Collector)
			}
			if s.RDT != rdt[p] {
				t.Errorf("%s+%s: RDT = %v", p, c, s.RDT)
			}
			if want := rdt[p] && c == core.RDTLGC; s.NBound != want {
				t.Errorf("%s+%s: NBound = %v, want %v", p, c, s.NBound, want)
			}
			if (s.Local != nil) != (c == core.RDTLGC) || (s.Global != nil) != global[c] {
				t.Errorf("%s+%s: local %v, global %v", p, c, s.Local != nil, s.Global != nil)
			}
			err = s.Live()
			if (err != nil) != global[c] {
				t.Errorf("%s+%s: Live() = %v", p, c, err)
			}
			if err != nil && !strings.Contains(err.Error(), "live engines run only local collectors") {
				t.Errorf("%s+%s: live refusal says %q", p, c, err)
			}
		}
	}
	for _, bad := range [][2]string{{"", core.RDTLGC}, {"fdas", core.RDTLGC}, {"FDAS", ""}, {"FDAS", "rdt-lgc"}} {
		if _, err := core.NewStack(bad[0], bad[1]); err == nil {
			t.Errorf("NewStack(%q, %q) should fail", bad[0], bad[1])
		}
	}
}
