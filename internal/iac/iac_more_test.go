package iac

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cloud"
)

func TestMustAddPanicsOnDuplicate(t *testing.T) {
	m := NewModule()
	m.MustAdd(Resource{Type: "a", Name: "x"})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.MustAdd(Resource{Type: "a", Name: "x"})
}

// failingProvider fails creation of a configured address, to exercise
// partial application.
type failingProvider struct {
	memProvider
	failOn string
}

func (f *failingProvider) Create(r Resource, s *State) (string, error) {
	if r.Address() == f.failOn {
		return "", fmt.Errorf("provider quota exceeded")
	}
	return f.memProvider.Create(r, s)
}

func TestApplyPartialFailureKeepsCompletedState(t *testing.T) {
	m := NewModule()
	m.MustAdd(Resource{Type: "a", Name: "first"})
	m.MustAdd(Resource{Type: "a", Name: "second", DependsOn: []string{"a.first"}})
	m.MustAdd(Resource{Type: "a", Name: "third", DependsOn: []string{"a.second"}})
	p := &failingProvider{memProvider: *newMemProvider(), failOn: "a.second"}
	s := NewState()
	plan, err := PlanChanges(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plan, p, s); err == nil {
		t.Fatal("expected apply failure")
	}
	// The first resource is recorded; the failed and downstream ones are
	// not — so a re-plan creates exactly the missing two.
	if _, ok := s.Get("a.first"); !ok {
		t.Error("completed resource missing from state")
	}
	if _, ok := s.Get("a.second"); ok {
		t.Error("failed resource recorded in state")
	}
	p.failOn = "" // provider recovers
	plan2, err := PlanChanges(m, s)
	if err != nil {
		t.Fatal(err)
	}
	c, _, _ := plan2.Summary()
	if c != 2 {
		t.Errorf("re-plan creates = %d, want 2", c)
	}
	if err := Apply(plan2, p, s); err != nil {
		t.Fatal(err)
	}
	if len(s.Addresses()) != 3 {
		t.Errorf("state size = %d", len(s.Addresses()))
	}
}

// stubbornProvider refuses all deletes, to exercise Destroy's
// no-progress error.
type stubbornProvider struct{ memProvider }

func (s *stubbornProvider) Delete(Resource, string, *State) error {
	return errors.New("still attached")
}

func TestDestroyNoProgress(t *testing.T) {
	m := NewModule()
	m.MustAdd(Resource{Type: "a", Name: "x"})
	p := &stubbornProvider{memProvider: *newMemProvider()}
	s := NewState()
	plan, _ := PlanChanges(m, s)
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	if err := Destroy(p, s); err == nil {
		t.Fatal("expected destroy to report no progress")
	}
	if len(s.Addresses()) != 1 {
		t.Error("state lost entries despite failed destroy")
	}
}

func TestCloudProviderUnknownType(t *testing.T) {
	p, _, _ := newProvider()
	if _, err := p.Create(Resource{Type: "dns_zone", Name: "x"}, NewState()); err == nil {
		t.Error("unknown resource type accepted")
	}
	// Unknown flavors error too.
	if _, err := p.Create(Resource{Type: "instance", Name: "x",
		Attrs: map[string]string{"flavor": "m9.huge"}}, NewState()); err == nil {
		t.Error("unknown flavor accepted")
	}
	// Dangling reference.
	if _, err := p.Create(Resource{Type: "instance", Name: "x",
		Attrs: map[string]string{"flavor": "m1.small", "network": "network.ghost"}}, NewState()); !errors.Is(err, ErrUnknown) {
		t.Errorf("dangling network ref err = %v", err)
	}
	if _, err := p.Create(Resource{Type: "floating_ip", Name: "f",
		Attrs: map[string]string{"instance": "instance.ghost"}}, NewState()); !errors.Is(err, ErrUnknown) {
		t.Errorf("dangling instance ref err = %v", err)
	}
	// Deleting unknown types is a no-op.
	if err := p.Delete(Resource{Type: "network", Name: "n"}, "id", nil); err != nil {
		t.Errorf("network delete err = %v", err)
	}
}

// A floating_ip create that fails leaves the project's addresses and the
// meter as they were: an address allocated before the failure would have
// no state entry, so Destroy could never free it.
func TestFailedFloatingIPCreateAllocatesNothing(t *testing.T) {
	p, cl, _ := newProvider()
	m := NewModule()
	m.MustAdd(Resource{Type: "instance", Name: "node1", Attrs: map[string]string{"name": "node1", "flavor": "m1.small"}})
	m.MustAdd(Resource{Type: "floating_ip", Name: "a", DependsOn: []string{"instance.node1"},
		Attrs: map[string]string{"instance": "instance.node1"}})
	s := NewState()
	plan, err := PlanChanges(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(plan, p, s); err != nil {
		t.Fatal(err)
	}
	proj, _ := cl.GetProject("class")
	for _, tc := range []struct {
		instance string
		want     error
	}{
		{"instance.nope", ErrUnknown},        // undeclared
		{"instance.node1", cloud.ErrIPInUse}, // already holds address a
	} {
		fips, records := proj.Usage.FloatingIPs, len(cl.Meter().Records(nil))
		_, err := p.Create(Resource{Type: "floating_ip", Name: "b", Attrs: map[string]string{"instance": tc.instance}}, s)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: create err = %v, want %v", tc.instance, err, tc.want)
		}
		if got := len(cl.Meter().Records(nil)); proj.Usage.FloatingIPs != fips || got != records {
			t.Errorf("%s: failed create left %d floating IPs and %d meter records, want %d and %d",
				tc.instance, proj.Usage.FloatingIPs, got, fips, records)
		}
	}
}

func TestPlaybookFileAndServiceChecks(t *testing.T) {
	h := NewHost("n")
	fc := FileContent("/etc/x", "v1")
	if fc.Check(h) {
		t.Error("missing file reported present")
	}
	if err := fc.Apply(h); err != nil {
		t.Fatal(err)
	}
	if !fc.Check(h) {
		t.Error("file not converged")
	}
	// Content change re-triggers.
	fc2 := FileContent("/etc/x", "v2")
	if fc2.Check(h) {
		t.Error("stale content passed check")
	}
	// Service without prerequisite works when requiresPackage empty.
	sr := ServiceRunning("adhoc", "")
	if err := sr.Apply(h); err != nil {
		t.Fatal(err)
	}
	if !h.Services["adhoc"] {
		t.Error("service not started")
	}
}
