package core_test

import (
	"testing"

	"veridp/internal/bloom"
	"veridp/internal/core"
	"veridp/internal/header"
	"veridp/internal/sim"
)

// TestInternet2BuildNodeBudget pins the construction's BDD work with a
// count that repeats exactly: building the default Internet2 table in a
// fresh Space. The banded priority scan makes about 11k nodes; rescanning
// the whole table for each input port of a switch with in-port rules
// made about 33k.
func TestInternet2BuildNodeBudget(t *testing.T) {
	e, err := sim.Internet2Env(sim.Internet2Default, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	s := header.NewSpace()
	b := &core.Builder{Net: e.Net, Space: s, Params: e.Params, Configs: e.Ctrl.Logical()}
	b.Build()
	if n := s.T.Size(); n >= 20000 {
		t.Fatalf("building Internet2Default made %d BDD nodes, want < 20000", n)
	}
}

// TestStanfordBuildNodeBudget pins the same for the default Stanford
// table, whose switches have no in-port rules but thousands of /24s:
// claiming each rule's match minus only the higher rules that overlap it
// makes about 43k nodes, where a running set of unclaimed headers, path-
// copied at every rule, made about 144k.
func TestStanfordBuildNodeBudget(t *testing.T) {
	e, err := sim.StanfordEnv(sim.StanfordDefault, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	s := header.NewSpace()
	b := &core.Builder{Net: e.Net, Space: s, Params: e.Params, Configs: e.Ctrl.Logical()}
	b.Build()
	if n := s.T.Size(); n >= 80000 {
		t.Fatalf("building StanfordDefault made %d BDD nodes, want < 80000", n)
	}
}
