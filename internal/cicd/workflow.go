// Package cicd implements the Unit-3 continuous-delivery substrate: an
// Argo-Workflows-style DAG engine with parallel step execution (this
// file) and staging → canary → production promotion with automated gates
// and rollback (promotion.go).
package cicd

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Workflow errors.
var (
	ErrCycle       = errors.New("cicd: workflow has a dependency cycle")
	ErrUnknownStep = errors.New("cicd: dependency on unknown step")
	ErrStepFailed  = errors.New("cicd: step failed")
)

// Context carries artifacts between workflow steps. It is safe for
// concurrent use by parallel steps.
type Context struct {
	mu     sync.Mutex
	values map[string]string
}

// Set stores an artifact value.
func (c *Context) Set(key, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.values[key] = value
}

// Get retrieves an artifact value.
func (c *Context) Get(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[key]
	return v, ok
}

// Step is one node of the workflow DAG.
type Step struct {
	Name      string
	DependsOn []string
	// Run executes the step; a nil Run is a no-op marker step.
	Run func(ctx *Context) error
}

// StepStatus is a step's terminal state.
type StepStatus int

const (
	StepSucceeded StepStatus = iota
	StepFailed
	StepSkipped // upstream failure
)

// StepResult records one step's outcome.
type StepResult struct {
	Status StepStatus
	Err    error
}

// Result summarizes a workflow run.
type Result struct {
	Succeeded bool
	Steps     map[string]StepResult
	// FinishOrder lists steps in completion order (parallel steps appear
	// in whichever order they finished).
	FinishOrder []string
}

// Workflow is a named DAG of steps.
type Workflow struct {
	Name  string
	Steps []Step
}

// validate checks the DAG for unknown references and cycles.
func (w Workflow) validate() error {
	byName := map[string]Step{}
	for _, s := range w.Steps {
		byName[s.Name] = s
	}
	// Cycle check via DFS coloring.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(name string) error
	visit = func(name string) error {
		switch color[name] {
		case gray:
			return fmt.Errorf("%w: through %q", ErrCycle, name)
		case black:
			return nil
		}
		color[name] = gray
		for _, dep := range byName[name].DependsOn {
			if _, ok := byName[dep]; !ok {
				return fmt.Errorf("%w: %q depends on %q", ErrUnknownStep, name, dep)
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// Run executes the workflow: steps start as soon as all dependencies
// succeed, independent steps run concurrently, failures mark downstream
// steps Skipped. The returned Result is complete even when the run fails;
// the error wraps the first step failure.
func (w Workflow) Run() (Result, error) {
	if err := w.validate(); err != nil {
		return Result{}, err
	}
	ctx := &Context{values: map[string]string{}}
	type done struct {
		name string
		res  StepResult
	}
	doneCh := make(chan done, len(w.Steps))

	res := Result{Steps: map[string]StepResult{}, Succeeded: true}
	pendingDeps := map[string]int{}
	dependents := map[string][]string{}
	byName := map[string]Step{}
	for _, s := range w.Steps {
		byName[s.Name] = s
		pendingDeps[s.Name] = len(s.DependsOn)
		for _, d := range s.DependsOn {
			dependents[d] = append(dependents[d], s.Name)
		}
	}

	launch := func(s Step) {
		go func() {
			r := StepResult{Status: StepSucceeded}
			if s.Run != nil {
				if r.Err = s.Run(ctx); r.Err != nil {
					r.Status = StepFailed
				}
			}
			doneCh <- done{s.Name, r}
		}()
	}

	// Launch roots.
	launched := 0
	for _, s := range w.Steps {
		if pendingDeps[s.Name] == 0 {
			launch(s)
			launched++
		}
	}

	var firstErr error
	finished := 0
	for finished < len(w.Steps) {
		if launched == finished {
			// Nothing running and nothing finished everything: remaining
			// steps all have failed/skipped ancestors — mark them.
			for _, s := range w.Steps {
				if _, ok := res.Steps[s.Name]; !ok {
					res.Steps[s.Name] = StepResult{Status: StepSkipped}
					res.FinishOrder = append(res.FinishOrder, s.Name)
					finished++
				}
			}
			break
		}
		d := <-doneCh
		finished++
		res.Steps[d.name] = d.res
		res.FinishOrder = append(res.FinishOrder, d.name)
		if d.res.Status == StepFailed {
			res.Succeeded = false
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: %s: %v", ErrStepFailed, d.name, d.res.Err)
			}
			continue // dependents never launch; swept at drain
		}
		for _, depName := range dependents[d.name] {
			pendingDeps[depName]--
			if pendingDeps[depName] == 0 && allDepsSucceeded(byName[depName], res.Steps) {
				launch(byName[depName])
				launched++
			}
		}
	}
	if !res.Succeeded && firstErr == nil {
		firstErr = ErrStepFailed
	}
	return res, firstErr
}

func allDepsSucceeded(s Step, results map[string]StepResult) bool {
	for _, d := range s.DependsOn {
		r, ok := results[d]
		if !ok || r.Status != StepSucceeded {
			return false
		}
	}
	return true
}
