package iac

import (
	"fmt"
	"testing"
	"testing/quick"
)

// memProvider is an in-memory Provider for property tests: creation
// returns fresh IDs; deletion and reads track liveness.
type memProvider struct {
	next int
	live map[string]bool
}

func newMemProvider() *memProvider { return &memProvider{live: map[string]bool{}} }

func (m *memProvider) Create(r Resource, _ *State) (string, error) {
	m.next++
	id := fmt.Sprintf("mem-%04d", m.next)
	m.live[id] = true
	return id, nil
}

func (m *memProvider) Delete(_ Resource, id string, _ *State) error {
	delete(m.live, id)
	return nil
}

// randomModule builds an acyclic module from fuzz input: resource i may
// depend only on resources with smaller indices.
func randomModule(rawN uint8, edges []uint16, attrSeed uint8) *Module {
	n := int(rawN%10) + 1
	m := NewModule()
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("r.res%02d", i)
		r := Resource{Type: "r", Name: fmt.Sprintf("res%02d", i),
			Attrs: map[string]string{"v": fmt.Sprint(int(attrSeed) + i)}}
		for _, e := range edges {
			to := int(e) % n
			from := int(e/256) % n
			if from == i && to < i {
				r.DependsOn = append(r.DependsOn, names[to])
			}
		}
		m.MustAdd(r)
	}
	return m
}

// TestPlanApplyConvergence: for any module, apply(plan(module, empty))
// followed by plan(module, state) yields an empty plan, and the provider
// holds exactly len(module) live objects.
func TestPlanApplyConvergence(t *testing.T) {
	f := func(rawN uint8, edges []uint16, attrSeed uint8) bool {
		m := randomModule(rawN, edges, attrSeed)
		p := newMemProvider()
		s := NewState()
		plan, err := PlanChanges(m, s)
		if err != nil {
			return false
		}
		if err := Apply(plan, p, s); err != nil {
			return false
		}
		replan, err := PlanChanges(m, s)
		if err != nil {
			return false
		}
		if c, u, d := replan.Summary(); c+u+d != 0 {
			return false
		}
		want := len(s.Addresses())
		return len(p.live) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDestroyLeavesNothing: after Destroy, the provider has zero live
// objects and the state is empty — for any module.
func TestDestroyLeavesNothing(t *testing.T) {
	f := func(rawN uint8, edges []uint16) bool {
		m := randomModule(rawN, edges, 0)
		p := newMemProvider()
		s := NewState()
		plan, err := PlanChanges(m, s)
		if err != nil {
			return false
		}
		if err := Apply(plan, p, s); err != nil {
			return false
		}
		if err := Destroy(p, s); err != nil {
			return false
		}
		return len(p.live) == 0 && len(s.Addresses()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestAttrChangeReplacesExactlyOne: mutating one resource's attributes
// plans exactly one update and leaves the provider object count constant
// after apply.
func TestAttrChangeReplacesExactlyOne(t *testing.T) {
	f := func(rawN uint8, edges []uint16, pick uint8) bool {
		m := randomModule(rawN, edges, 1)
		p := newMemProvider()
		s := NewState()
		plan, err := PlanChanges(m, s)
		if err != nil {
			return false
		}
		if err := Apply(plan, p, s); err != nil {
			return false
		}
		before := len(p.live)

		addrs, err := m.topoSort()
		if err != nil {
			return false
		}
		target := addrs[int(pick)%len(addrs)]
		m2 := NewModule()
		for _, addr := range addrs {
			r := m.resources[addr]
			if addr == target {
				r.Attrs = map[string]string{"v": "mutated"}
			}
			m2.MustAdd(r)
		}
		plan2, err := PlanChanges(m2, s)
		if err != nil {
			return false
		}
		c, u, d := plan2.Summary()
		if c != 0 || u != 1 || d != 0 {
			return false
		}
		if err := Apply(plan2, p, s); err != nil {
			return false
		}
		return len(p.live) == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
