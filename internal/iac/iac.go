// Package iac implements the Unit-3 infrastructure-as-code substrate: a
// Terraform-style declarative engine (resource graph, plan/apply/destroy,
// state tracking, drift detection) and an Ansible-style idempotent
// configuration runner (playbook.go).
//
// A Module declares resources with dependencies; Plan diffs the module
// against recorded State to produce create/update/delete actions; Apply
// executes them through a Provider in dependency order (reverse order for
// deletes). The cloudprovider.go bridge makes the engine provision real
// resources in the internal/cloud simulator, which is how the GourmetGram
// example and the course simulation provision lab infrastructure
// "using standard IaC tools" as the paper requires.
package iac

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Errors returned by the engine.
var (
	ErrCycle     = errors.New("iac: dependency cycle")
	ErrUnknown   = errors.New("iac: reference to undeclared resource")
	ErrDuplicate = errors.New("iac: duplicate resource address")
)

// Resource is one declared infrastructure object. Address (Type.Name)
// must be unique within a module.
type Resource struct {
	Type      string // e.g. "instance", "network", "floating_ip"
	Name      string
	Attrs     map[string]string
	DependsOn []string // addresses
}

// Address returns the resource's unique module-scoped identifier.
func (r Resource) Address() string { return r.Type + "." + r.Name }

// deps returns the addresses r must follow: DependsOn, plus the address
// in its reference attribute (refAttr) when it names one. Like
// Terraform's implicit dependencies, a reference orders the plan and
// must name a declared resource, whether or not DependsOn repeats it.
func (r Resource) deps() []string {
	attr, ok := refAttr[r.Type]
	ref := r.Attrs[attr]
	if !ok || ref == "" || slices.Contains(r.DependsOn, ref) {
		return r.DependsOn
	}
	return append(slices.Clip(r.DependsOn), ref)
}

// Module is a declarative set of resources.
type Module struct {
	resources map[string]Resource
	order     []string // declaration order, for stable output
}

// NewModule returns an empty module.
func NewModule() *Module {
	return &Module{resources: map[string]Resource{}}
}

// Add declares a resource. Redeclaring an address is an error.
func (m *Module) Add(r Resource) error {
	addr := r.Address()
	if _, ok := m.resources[addr]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicate, addr)
	}
	m.resources[addr] = r
	m.order = append(m.order, addr)
	return nil
}

// MustAdd is Add for static configuration where duplicates are a bug.
func (m *Module) MustAdd(r Resource) {
	if err := m.Add(r); err != nil {
		panic(err)
	}
}

// topoSort returns addresses dependency-first, detecting cycles and
// dangling references. Kahn's algorithm with deterministic tie-breaking
// by declaration order.
func (m *Module) topoSort() ([]string, error) {
	indeg := map[string]int{}
	dependents := map[string][]string{}
	for addr, r := range m.resources {
		indeg[addr] += 0
		for _, dep := range r.deps() {
			if _, ok := m.resources[dep]; !ok {
				return nil, fmt.Errorf("%w: %s depends on %s", ErrUnknown, addr, dep)
			}
			indeg[addr]++
			dependents[dep] = append(dependents[dep], addr)
		}
	}
	var ready []string
	for _, addr := range m.order {
		if indeg[addr] == 0 {
			ready = append(ready, addr)
		}
	}
	var out []string
	for len(ready) > 0 {
		addr := ready[0]
		ready = ready[1:]
		out = append(out, addr)
		deps := dependents[addr]
		sort.Strings(deps)
		for _, d := range deps {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	if len(out) != len(m.resources) {
		return nil, fmt.Errorf("%w among %d resources", ErrCycle, len(m.resources)-len(out))
	}
	return out, nil
}

// StateEntry records one managed resource instance.
type StateEntry struct {
	Resource Resource
	// ID is the provider-assigned identifier.
	ID string
}

// State is the engine's record of what it manages (terraform.tfstate).
type State struct {
	entries map[string]StateEntry
}

// NewState returns an empty state.
func NewState() *State {
	return &State{entries: map[string]StateEntry{}}
}

// Get looks up the state entry for an address.
func (s *State) Get(addr string) (StateEntry, bool) {
	e, ok := s.entries[addr]
	return e, ok
}

// Addresses returns managed addresses, sorted.
func (s *State) Addresses() []string {
	out := make([]string, 0, len(s.entries))
	for a := range s.entries {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ActionKind classifies a planned change.
type ActionKind int

const (
	ActionCreate ActionKind = iota
	ActionUpdate            // destroy-and-recreate, as for immutable attrs
	ActionDelete
	ActionNoop
)

// Action is one planned change.
type Action struct {
	Kind     ActionKind
	Resource Resource
	// PriorID is the existing provider ID for updates and deletes.
	PriorID string
}

// Plan is an ordered set of actions: deletes first (reverse dependency
// order), then creates/updates (dependency order).
type Plan struct {
	Actions []Action
}

// Summary counts actions by kind, terraform-style ("3 to add, 1 to
// destroy").
func (p Plan) Summary() (creates, updates, deletes int) {
	for _, a := range p.Actions {
		switch a.Kind {
		case ActionCreate:
			creates++
		case ActionUpdate:
			updates++
		case ActionDelete:
			deletes++
		}
	}
	return
}

// PlanChanges diffs the desired module against recorded state.
func PlanChanges(m *Module, s *State) (Plan, error) {
	sorted, err := m.topoSort()
	if err != nil {
		return Plan{}, err
	}
	var plan Plan
	// Deletes: state entries no longer declared, in reverse dependency
	// order relative to current declarations (orphans last).
	declared := map[string]bool{}
	for _, addr := range sorted {
		declared[addr] = true
	}
	var deletes []Action
	for _, addr := range s.Addresses() {
		if !declared[addr] {
			e := s.entries[addr]
			deletes = append(deletes, Action{Kind: ActionDelete, Resource: e.Resource, PriorID: e.ID})
		}
	}
	// Reverse so that dependents (declared later originally) go first.
	for i, j := 0, len(deletes)-1; i < j; i, j = i+1, j-1 {
		deletes[i], deletes[j] = deletes[j], deletes[i]
	}
	plan.Actions = append(plan.Actions, deletes...)

	for _, addr := range sorted {
		r := m.resources[addr]
		prior, ok := s.entries[addr]
		switch {
		case !ok:
			plan.Actions = append(plan.Actions, Action{Kind: ActionCreate, Resource: r})
		case !attrsEqual(prior.Resource.Attrs, r.Attrs):
			plan.Actions = append(plan.Actions, Action{Kind: ActionUpdate, Resource: r, PriorID: prior.ID})
		default:
			plan.Actions = append(plan.Actions, Action{Kind: ActionNoop, Resource: r, PriorID: prior.ID})
		}
	}
	return plan, nil
}

func attrsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Provider executes infrastructure changes.
type Provider interface {
	Create(r Resource, state *State) (id string, err error)
	Delete(r Resource, id string, state *State) error
}

// Apply executes a plan against a provider, recording results in state.
// On failure it stops, leaving state reflecting completed actions only
// (partial application, like the real tool).
func Apply(p Plan, provider Provider, s *State) error {
	for _, a := range p.Actions {
		addr := a.Resource.Address()
		switch a.Kind {
		case ActionNoop:
			continue
		case ActionDelete:
			if err := provider.Delete(a.Resource, a.PriorID, s); err != nil {
				return fmt.Errorf("iac: delete %s: %w", addr, err)
			}
			delete(s.entries, addr)
		case ActionUpdate:
			if err := provider.Delete(a.Resource, a.PriorID, s); err != nil {
				return fmt.Errorf("iac: replace %s (delete): %w", addr, err)
			}
			delete(s.entries, addr)
			fallthrough
		case ActionCreate:
			id, err := provider.Create(a.Resource, s)
			if err != nil {
				return fmt.Errorf("iac: create %s: %w", addr, err)
			}
			s.entries[addr] = StateEntry{Resource: a.Resource, ID: id}
		}
	}
	return nil
}

// Destroy plans and applies the removal of everything in state, in
// reverse creation order.
func Destroy(provider Provider, s *State) error {
	addrs := s.Addresses()
	// Reverse of sorted addresses is not dependency order in general, but
	// state records creation sequence through plan ordering; to be safe,
	// delete dependents first by retrying failed deletes after the rest.
	remaining := append([]string(nil), addrs...)
	for len(remaining) > 0 {
		progressed := false
		var next []string
		for i := len(remaining) - 1; i >= 0; i-- {
			addr := remaining[i]
			e := s.entries[addr]
			if err := provider.Delete(e.Resource, e.ID, s); err != nil {
				next = append(next, addr)
				continue
			}
			delete(s.entries, addr)
			progressed = true
		}
		if !progressed {
			return fmt.Errorf("iac: destroy could not make progress; %d resources remain", len(next))
		}
		remaining = next
	}
	return nil
}
