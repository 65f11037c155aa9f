// Package datapipe implements the Unit-8 data systems: a batch ETL
// pipeline (this file), a broker–producer–consumer streaming layer
// (stream.go), and a feature store unifying both paths for training and
// inference (featurestore.go).
package datapipe

import (
	"errors"
	"fmt"
)

// Record is one data row flowing through a pipeline: a flat map of
// feature name to value plus an entity key.
type Record struct {
	Key    string
	Fields map[string]float64
	Labels map[string]string
}

// Clone deep-copies the record so stages can mutate freely.
func (r Record) Clone() Record {
	out := Record{Key: r.Key,
		Fields: make(map[string]float64, len(r.Fields)),
		Labels: make(map[string]string, len(r.Labels))}
	for k, v := range r.Fields {
		out.Fields[k] = v
	}
	for k, v := range r.Labels {
		out.Labels[k] = v
	}
	return out
}

// Transform maps a record to zero or more records: filtering (return
// none), enrichment, or fan-out.
type Transform func(Record) ([]Record, error)

// ErrBadRecord is the conventional wrapper for per-record failures; the
// pipeline routes such records to the dead-letter queue instead of
// aborting the batch.
var ErrBadRecord = errors.New("datapipe: bad record")

// ETL is a batch extract-transform-load pipeline with dead-letter
// handling and per-stage counters.
type ETL struct {
	Name   string
	stages []stage
}

type stage struct {
	name string
	fn   Transform
}

// NewETL returns an empty pipeline.
func NewETL(name string) *ETL {
	return &ETL{Name: name}
}

// Stage appends a transform; returns the pipeline for chaining.
func (p *ETL) Stage(name string, fn Transform) *ETL {
	p.stages = append(p.stages, stage{name, fn})
	return p
}

// RunReport summarizes one batch run.
type RunReport struct {
	In         int
	Out        int
	DeadLetter []DeadRecord
	// PerStage maps stage name to records emitted by that stage.
	PerStage map[string]int
}

// DeadRecord pairs a failed record with its cause.
type DeadRecord struct {
	Record Record
	Stage  string
	Err    error
}

// Run pushes a batch through all stages. Records whose transform returns
// a ErrBadRecord-wrapped error go to the dead-letter queue; any other
// error aborts the run (it indicates a pipeline bug, not bad data).
func (p *ETL) Run(batch []Record) (out []Record, report RunReport, err error) {
	report = RunReport{In: len(batch), PerStage: map[string]int{}}
	current := batch
	for _, st := range p.stages {
		var next []Record
		for _, rec := range current {
			emitted, terr := st.fn(rec)
			if terr != nil {
				if errors.Is(terr, ErrBadRecord) {
					report.DeadLetter = append(report.DeadLetter, DeadRecord{rec, st.name, terr})
					continue
				}
				return nil, report, fmt.Errorf("datapipe: stage %q: %w", st.name, terr)
			}
			next = append(next, emitted...)
		}
		report.PerStage[st.name] = len(next)
		current = next
	}
	report.Out = len(current)
	return current, report, nil
}

// Common transforms used by the labs and examples.

// FilterFields drops records missing any of the required fields.
func FilterFields(required ...string) Transform {
	return func(r Record) ([]Record, error) {
		for _, f := range required {
			if _, ok := r.Fields[f]; !ok {
				return nil, fmt.Errorf("%w: missing field %q in %s", ErrBadRecord, f, r.Key)
			}
		}
		return []Record{r}, nil
	}
}

// Scale multiplies a field by factor.
func Scale(field string, factor float64) Transform {
	return func(r Record) ([]Record, error) {
		out := r.Clone()
		out.Fields[field] *= factor
		return []Record{out}, nil
	}
}

// Derive computes a new field from the record.
func Derive(field string, fn func(Record) float64) Transform {
	return func(r Record) ([]Record, error) {
		out := r.Clone()
		out.Fields[field] = fn(r)
		return []Record{out}, nil
	}
}
