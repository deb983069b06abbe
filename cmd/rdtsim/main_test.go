package main

import (
	"testing"

	rdt "repro"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/workload"
)

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
