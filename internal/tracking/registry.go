package tracking

import (
	"fmt"
)

// Stage is a registered model version's deployment stage.
type Stage string

const (
	StageNone       Stage = "None"
	StageStaging    Stage = "Staging"
	StageProduction Stage = "Production"
	StageArchived   Stage = "Archived"
)

func validStage(s Stage) bool {
	switch s {
	case StageNone, StageStaging, StageProduction, StageArchived:
		return true
	}
	return false
}

// ModelVersion is one immutable registered artifact.
type ModelVersion struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	RunID   string `json:"run_id"`
	// ArtifactPath locates the model blob within the source run.
	ArtifactPath string  `json:"artifact_path"`
	Stage        Stage   `json:"stage"`
	CreatedAt    float64 `json:"created_at"`
}

// RegisteredModel is a named lineage of versions.
type RegisteredModel struct {
	Name     string          `json:"name"`
	Versions []*ModelVersion `json:"versions"`
}

// CreateModelVersion registers a run's artifact as the next version of
// the named model (creating the model if needed).
func (s *Store) CreateModelVersion(name, runID, artifactPath string) (*ModelVersion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[runID]
	if !ok {
		return nil, fmt.Errorf("%w: run %q", ErrNotFound, runID)
	}
	if _, ok := r.Artifacts[artifactPath]; !ok {
		return nil, fmt.Errorf("%w: artifact %q in run %s", ErrNotFound, artifactPath, runID)
	}
	m, ok := s.registry[name]
	if !ok {
		m = &RegisteredModel{Name: name}
		s.registry[name] = m
	}
	v := &ModelVersion{
		Name:         name,
		Version:      len(m.Versions) + 1,
		RunID:        runID,
		ArtifactPath: artifactPath,
		Stage:        StageNone,
		CreatedAt:    s.now(),
	}
	m.Versions = append(m.Versions, v)
	return v, nil
}

// TransitionStage moves a version to a stage. Promoting to Production
// archives any existing Production version of the same model, so exactly
// one version serves at a time.
func (s *Store) TransitionStage(name string, version int, stage Stage) (*ModelVersion, error) {
	if !validStage(stage) {
		return nil, fmt.Errorf("%w: %q", ErrBadStage, stage)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: model %q", ErrNotFound, name)
	}
	if version < 1 || version > len(m.Versions) {
		return nil, fmt.Errorf("%w: %s version %d", ErrNotFound, name, version)
	}
	v := m.Versions[version-1]
	if stage == StageProduction {
		for _, other := range m.Versions {
			if other != v && other.Stage == StageProduction {
				other.Stage = StageArchived
			}
		}
	}
	v.Stage = stage
	return v, nil
}

// LatestVersion returns the newest version in the given stage (or the
// newest overall for StageNone + empty results semantics: pass "" to mean
// any stage).
func (s *Store) LatestVersion(name string, stage Stage) (*ModelVersion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.registry[name]
	if !ok {
		return nil, fmt.Errorf("%w: model %q", ErrNotFound, name)
	}
	for i := len(m.Versions) - 1; i >= 0; i-- {
		if stage == "" || m.Versions[i].Stage == stage {
			return m.Versions[i], nil
		}
	}
	return nil, fmt.Errorf("%w: model %q has no version in stage %q", ErrNotFound, name, stage)
}

// LoadModel fetches the artifact bytes behind a version — what a serving
// process does at startup.
func (s *Store) LoadModel(v *ModelVersion) ([]byte, error) {
	return s.GetArtifact(v.RunID, v.ArtifactPath)
}
