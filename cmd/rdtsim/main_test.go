package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"testing"

	rdt "repro"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/workload"
)

// TestMain runs the rdtsim command itself when RDTSIM_RUN_MAIN is set, so a
// test can hold main's flag checks and exit codes to account in a child
// process.
func TestMain(m *testing.M) {
	if os.Getenv("RDTSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs rdtsim with args in a child process and returns its exit
// code, standard output and standard error.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RDTSIM_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatalf("rdtsim %v: %v", args, err)
	return 0, "", ""
}

func TestParseWorkload(t *testing.T) {
	for _, k := range workload.Kinds() {
		got, err := parseWorkload(k.String())
		if err != nil || got != k {
			t.Errorf("parseWorkload(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got, err := parseWorkload("UNIFORM"); err != nil || got != workload.Uniform {
		t.Errorf("case-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := parseWorkload("nope"); err == nil {
		t.Error("unknown workload should fail")
	}
}

func TestCheckShape(t *testing.T) {
	for _, ok := range [][2]int{{2, -1}, {2, 0}, {2, 1}, {3, 2}, {8, -1}} {
		if err := checkShape(ok[0], ok[1]); err != nil {
			t.Errorf("checkShape(n=%d, crash=%d) = %v", ok[0], ok[1], err)
		}
	}
	for _, bad := range [][2]int{{1, -1}, {0, -1}, {-3, -1}, {3, 3}, {3, 7}, {3, -2}} {
		if err := checkShape(bad[0], bad[1]); err == nil {
			t.Errorf("checkShape(n=%d, crash=%d) should fail", bad[0], bad[1])
		}
	}
}

func TestParseProtocol(t *testing.T) {
	for _, p := range []rdt.Protocol{rdt.FDAS, rdt.FDI, rdt.CBR, rdt.Russell, rdt.BCS, rdt.NoProtocol} {
		got, err := parseProtocol(p.String())
		if err != nil || got != p {
			t.Errorf("parseProtocol(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := parseProtocol("paxos"); err == nil {
		t.Error("unknown protocol should fail")
	}
}

func TestParseCollector(t *testing.T) {
	for _, c := range []rdt.Collector{rdt.RDTLGC, rdt.NoGC, rdt.SyncOptimal, rdt.RecoveryLineGC} {
		got, err := parseCollector(c.String())
		if err != nil || got != c {
			t.Errorf("parseCollector(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := parseCollector("mark-sweep"); err == nil {
		t.Error("unknown collector should fail")
	}
}

// TestHelpListsExactlyWhatParses holds the -protocol and -gc help, which
// list the protocol and collector tables, to the parsers: every listed name
// parses to a constant of that String, and every facade constant the
// parsers accept is listed.
func TestHelpListsExactlyWhatParses(t *testing.T) {
	listed := map[string]bool{}
	for _, name := range protocol.Names() {
		listed[name] = true
		if p, err := parseProtocol(name); err != nil || p.String() != name {
			t.Errorf("listed protocol %q parses to %v, %v", name, p, err)
		}
	}
	for p := rdt.Protocol(0); p <= rdt.NoProtocol+1; p++ {
		if _, err := parseProtocol(p.String()); err == nil && !listed[p.String()] {
			t.Errorf("protocol %q parses but -protocol does not list it", p)
		}
	}
	for _, name := range core.CollectorNames() {
		listed[name] = true
		if c, err := parseCollector(name); err != nil || c.String() != name {
			t.Errorf("listed collector %q parses to %v, %v", name, c, err)
		}
	}
	for c := rdt.Collector(0); c <= rdt.RecoveryLineGC+1; c++ {
		if _, err := parseCollector(c.String()); err == nil && !listed[c.String()] {
			t.Errorf("collector %q parses but -gc does not list it", c)
		}
	}
}

func TestRatio(t *testing.T) {
	if ratio(1, 2) != 0.5 || ratio(0, 0) != 0 || ratio(3, 0) != 1 {
		t.Error("ratio edge cases wrong")
	}
}

// TestLiveRunsTheChosenStack holds -live to -protocol, -gc and -pcheckpoint:
// a live run without a protocol forces no checkpoint, keeps every one it
// takes under no-gc, and says so in its header.
func TestLiveRunsTheChosenStack(t *testing.T) {
	var out bytes.Buffer
	run := liveRun{n: 4, ops: 400, crash: -1, seed: 1, pc: 0.2, useLI: true, proto: rdt.NoProtocol, col: rdt.NoGC}
	if err := runLive(&out, run, nil); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	if !strings.HasPrefix(report, "live cluster: protocol=none gc=no-gc n=4 ops≈400 pcheckpoint=0.2 ") {
		t.Errorf("header does not name the chosen stack:\n%s", report)
	}
	lines := regexp.MustCompile(`p\d: (\d+) basic \+ (\d+) forced checkpoints, (\d+) stored`).FindAllStringSubmatch(report, -1)
	if len(lines) != run.n {
		t.Fatalf("%d process lines, want %d:\n%s", len(lines), run.n, report)
	}
	for _, m := range lines {
		basic, _ := strconv.Atoi(m[1])
		forced, _ := strconv.Atoi(m[2])
		stored, _ := strconv.Atoi(m[3])
		if forced != 0 {
			t.Errorf("protocol none forced checkpoints: %q", m[0])
		}
		if stored != basic+forced+1 { // every checkpoint taken, and the initial one
			t.Errorf("no-gc collected checkpoints: %q", m[0])
		}
	}
}

// TestLiveRefusesGlobalCollector: a live cluster runs local collectors only,
// and -live with a global one fails with the facade's reason.
func TestLiveRefusesGlobalCollector(t *testing.T) {
	run := liveRun{n: 3, ops: 30, crash: -1, seed: 1, pc: 0.2, proto: rdt.FDAS, col: rdt.SyncOptimal}
	err := runLive(new(bytes.Buffer), run, nil)
	if err == nil || !strings.Contains(err.Error(), "live engines run only local collectors") {
		t.Fatalf("runLive with %s: %v", rdt.SyncOptimal, err)
	}
}

// TestCheckLoad runs the command: in the simulator and under -live alike,
// -ops below 1 or a -pcheckpoint outside [0, 1] (NaN included) exits 2,
// names the flag and prints no table, while the edges of the accepted range
// run.
func TestCheckLoad(t *testing.T) {
	for _, mode := range [][]string{{}, {"-live"}} {
		for _, bad := range [][]string{
			{"-ops", "0"}, {"-ops", "-5"},
			{"-pcheckpoint", "-1"}, {"-pcheckpoint", "2"}, {"-pcheckpoint", "-0.01"},
			{"-pcheckpoint", "1.01"}, {"-pcheckpoint", "NaN"},
		} {
			args := append(append([]string{"-n", "2"}, mode...), bad...)
			code, stdout, stderr := runMain(t, args...)
			if code != 2 || stdout != "" || !strings.Contains(stderr, bad[0]) {
				t.Errorf("rdtsim %v: exit %d, stdout %q, stderr %q; want exit 2 naming %s and no output",
					args, code, stdout, stderr, bad[0])
			}
		}
		for _, ok := range [][]string{{"-ops", "1", "-pcheckpoint", "0"}, {"-ops", "1", "-pcheckpoint", "1"}} {
			args := append(append([]string{"-n", "2"}, mode...), ok...)
			if code, stdout, stderr := runMain(t, args...); code != 0 || stdout == "" {
				t.Errorf("rdtsim %v: exit %d, stdout %q, stderr %q; want a run", args, code, stdout, stderr)
			}
		}
	}
}
