// Package tracking implements the experiment-tracking server and model
// registry of Unit 5: experiments group runs; runs record parameters,
// tagged metadata, stepwise metric histories, and artifacts; the registry
// versions models and moves them through Staging/Production stages — the
// MLflow workflow the lab deploys, exposed both as a Go API and over HTTP
// (server.go).
package tracking

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Errors returned by the store.
var (
	ErrNotFound  = errors.New("tracking: not found")
	ErrFinished  = errors.New("tracking: run already finished")
	ErrNoMetric  = errors.New("tracking: metric not recorded")
	ErrBadStage  = errors.New("tracking: unknown stage")
	ErrDuplicate = errors.New("tracking: already exists")
)

// RunStatus is a run's lifecycle state.
type RunStatus string

const (
	StatusRunning  RunStatus = "RUNNING"
	StatusFinished RunStatus = "FINISHED"
	StatusFailed   RunStatus = "FAILED"
)

// MetricPoint is one logged metric observation.
type MetricPoint struct {
	Step  int     `json:"step"`
	Value float64 `json:"value"`
}

// Run is one tracked training execution.
type Run struct {
	ID           string                   `json:"id"`
	ExperimentID string                   `json:"experiment_id"`
	Name         string                   `json:"name"`
	Status       RunStatus                `json:"status"`
	Params       map[string]string        `json:"params"`
	Tags         map[string]string        `json:"tags"`
	Metrics      map[string][]MetricPoint `json:"metrics"`
	Artifacts    map[string][]byte        `json:"-"`
	StartTime    float64                  `json:"start_time"`
	EndTime      float64                  `json:"end_time"`
}

// LastMetric returns the most recently logged value of a metric.
func (r *Run) LastMetric(name string) (float64, bool) {
	pts := r.Metrics[name]
	if len(pts) == 0 {
		return 0, false
	}
	return pts[len(pts)-1].Value, true
}

// Experiment groups related runs.
type Experiment struct {
	ID   string `json:"id"`
	Name string `json:"name"`
}

// Store is the tracking backend: experiment metadata, run store, artifact
// store, and model registry in one. Safe for concurrent use.
type Store struct {
	mu          sync.Mutex
	experiments map[string]*Experiment
	byName      map[string]string // experiment name -> ID
	runs        map[string]*Run
	registry    map[string]*RegisteredModel
	nextID      int
	counter     float64 // the logical clock behind run timestamps
}

// NewStore returns an empty tracking store.
func NewStore() *Store {
	return &Store{
		experiments: map[string]*Experiment{},
		byName:      map[string]string{},
		runs:        map[string]*Run{},
		registry:    map[string]*RegisteredModel{},
	}
}

// now advances and returns the store's logical clock: run timestamps
// order runs, they do not measure time. Call with s.mu held.
func (s *Store) now() float64 {
	s.counter++
	return s.counter
}

func (s *Store) id(prefix string) string {
	s.nextID++
	return fmt.Sprintf("%s-%06d", prefix, s.nextID)
}

// CreateExperiment registers a named experiment; names are unique and
// re-creating returns the existing experiment (idempotent, like the real
// client's get-or-create flow).
func (s *Store) CreateExperiment(name string) *Experiment {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byName[name]; ok {
		return s.experiments[id]
	}
	e := &Experiment{ID: s.id("exp"), Name: name}
	s.experiments[e.ID] = e
	s.byName[name] = e.ID
	return e
}

// StartRun begins a run under an experiment.
func (s *Store) StartRun(experimentID, name string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.experiments[experimentID]; !ok {
		return nil, fmt.Errorf("%w: experiment %q", ErrNotFound, experimentID)
	}
	r := &Run{
		ID:           s.id("run"),
		ExperimentID: experimentID,
		Name:         name,
		Status:       StatusRunning,
		Params:       map[string]string{},
		Tags:         map[string]string{},
		Metrics:      map[string][]MetricPoint{},
		Artifacts:    map[string][]byte{},
		StartTime:    s.now(),
		EndTime:      -1,
	}
	s.runs[r.ID] = r
	return r, nil
}

func (s *Store) activeRun(runID string) (*Run, error) {
	r, ok := s.runs[runID]
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	if r.Status != StatusRunning {
		return nil, fmt.Errorf("%w: %s", ErrFinished, runID)
	}
	return r, nil
}

// LogParam records an immutable hyperparameter on a running run.
func (s *Store) LogParam(runID, key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.activeRun(runID)
	if err != nil {
		return err
	}
	r.Params[key] = value
	return nil
}

// LogMetric appends a metric observation at a step.
func (s *Store) LogMetric(runID, key string, step int, value float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.activeRun(runID)
	if err != nil {
		return err
	}
	r.Metrics[key] = append(r.Metrics[key], MetricPoint{Step: step, Value: value})
	return nil
}

// LogArtifact stores a blob under path in the run's artifact store.
func (s *Store) LogArtifact(runID, path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.activeRun(runID)
	if err != nil {
		return err
	}
	r.Artifacts[path] = append([]byte(nil), data...)
	return nil
}

// GetArtifact retrieves a blob from any run (finished runs included).
func (s *Store) GetArtifact(runID, path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[runID]
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	data, ok := r.Artifacts[path]
	if !ok {
		return nil, fmt.Errorf("%w: artifact %q", ErrNotFound, path)
	}
	return append([]byte(nil), data...), nil
}

// EndRun finishes a run with the given status.
func (s *Store) EndRun(runID string, status RunStatus) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, err := s.activeRun(runID)
	if err != nil {
		return err
	}
	r.Status = status
	r.EndTime = s.now()
	return nil
}

// GetRun returns a run by ID.
func (s *Store) GetRun(runID string) (*Run, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[runID]
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	return r, nil
}

// SearchRuns returns an experiment's runs matching filter (nil = all),
// sorted by start time then ID. The filter runs outside the store lock
// (on a snapshot of the experiment's runs), so it may safely call back
// into the Store — e.g. GetRun on a parent run — without deadlocking.
func (s *Store) SearchRuns(experimentID string, filter func(*Run) bool) []*Run {
	s.mu.Lock()
	var candidates []*Run
	for _, r := range s.runs {
		if r.ExperimentID == experimentID {
			candidates = append(candidates, r)
		}
	}
	s.mu.Unlock()
	var out []*Run
	for _, r := range candidates {
		if filter == nil || filter(r) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartTime != out[j].StartTime {
			return out[i].StartTime < out[j].StartTime
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// BestRun returns the experiment's finished run with the best last value
// of metric (maximize or minimize) — the "compare experiment results"
// workflow from the lab.
func (s *Store) BestRun(experimentID, metric string, maximize bool) (*Run, error) {
	runs := s.SearchRuns(experimentID, func(r *Run) bool { return r.Status == StatusFinished })
	var best *Run
	var bestVal float64
	for _, r := range runs {
		v, ok := r.LastMetric(metric)
		if !ok {
			continue
		}
		if best == nil || (maximize && v > bestVal) || (!maximize && v < bestVal) {
			best, bestVal = r, v
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %q in experiment %s", ErrNoMetric, metric, experimentID)
	}
	return best, nil
}
