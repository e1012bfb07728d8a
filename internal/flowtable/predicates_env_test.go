package flowtable_test

import (
	"testing"

	"veridp/internal/bloom"
	"veridp/internal/flowtable"
	"veridp/internal/header"
	"veridp/internal/sim"
)

// TestTransferFuncsMatchReferenceEnvs runs the exact differential check on
// every switch of the Internet2 environment, whose service-policy path
// rules match on the input port, of Stanford, whose /24s sit under
// DstPort service policies beside in-ACLs, and of Figure 5, whose S2
// forwards by input port alone.
func TestTransferFuncsMatchReferenceEnvs(t *testing.T) {
	i2, err := sim.Internet2Env(sim.Internet2Default, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.StanfordEnv(sim.StanfordDefault, bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	f5, err := sim.Figure5Env(bloom.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*sim.Env{i2, st, f5} {
		s := header.NewSpace()
		for sw, c := range e.Ctrl.Logical() {
			t.Run(e.Name+"/"+e.Net.Switch(sw).Name, func(t *testing.T) {
				flowtable.CheckTransferFuncsExact(t, s, c)
			})
		}
	}
}
