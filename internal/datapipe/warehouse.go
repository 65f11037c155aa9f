package datapipe

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Warehouse is a small column-oriented analytical store — the "data
// warehouse" tier from the Unit-8 lecture's storage-system taxonomy.
// Rows are appended with string dimensions and float64 measures; queries
// filter on dimensions and compute grouped aggregates, which is the
// access pattern that distinguishes warehouses from the OLTP stores the
// lecture contrasts them with.
type Warehouse struct {
	mu     sync.RWMutex
	tables map[string]*table
}

type table struct {
	dims     []string
	measures []string
	// Columnar layout: one slice per column.
	dimCols     map[string][]string
	measureCols map[string][]float64
	rows        int
}

// Warehouse errors.
var (
	ErrNoTable      = errors.New("datapipe: table does not exist")
	ErrSchema       = errors.New("datapipe: row does not match table schema")
	ErrBadColumn    = errors.New("datapipe: unknown column")
	ErrBadAggregate = errors.New("datapipe: unknown aggregate")
)

// NewWarehouse returns an empty warehouse.
func NewWarehouse() *Warehouse {
	return &Warehouse{tables: map[string]*table{}}
}

// CreateTable declares a table with string dimension columns and float64
// measure columns. Idempotent for identical schemas.
func (w *Warehouse) CreateTable(name string, dims, measures []string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.tables[name]; ok {
		return nil
	}
	t := &table{
		dims: append([]string(nil), dims...), measures: append([]string(nil), measures...),
		dimCols: map[string][]string{}, measureCols: map[string][]float64{},
	}
	for _, d := range dims {
		t.dimCols[d] = nil
	}
	for _, m := range measures {
		t.measureCols[m] = nil
	}
	w.tables[name] = t
	return nil
}

// WarehouseRow is one fact-row for insertion.
type WarehouseRow struct {
	Dims     map[string]string
	Measures map[string]float64
}

// Insert appends rows; each must provide every schema column.
func (w *Warehouse) Insert(tableName string, rows ...WarehouseRow) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	t, ok := w.tables[tableName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoTable, tableName)
	}
	for _, r := range rows {
		for _, d := range t.dims {
			if _, ok := r.Dims[d]; !ok {
				return fmt.Errorf("%w: missing dimension %q", ErrSchema, d)
			}
		}
		for _, m := range t.measures {
			if _, ok := r.Measures[m]; !ok {
				return fmt.Errorf("%w: missing measure %q", ErrSchema, m)
			}
		}
		for _, d := range t.dims {
			t.dimCols[d] = append(t.dimCols[d], r.Dims[d])
		}
		for _, m := range t.measures {
			t.measureCols[m] = append(t.measureCols[m], r.Measures[m])
		}
		t.rows++
	}
	return nil
}

// Agg selects an aggregate function.
type Agg string

// Aggregates supported by Query.
const (
	Count Agg = "count"
	Sum   Agg = "sum"
	Avg   Agg = "avg"
	Min   Agg = "min"
	Max   Agg = "max"
)

// Query describes a grouped aggregation: optional equality filters on
// dimensions, a group-by dimension ("" for a single global group), and
// one aggregate over a measure (measure ignored for Count).
type Query struct {
	Table   string
	Where   map[string]string
	GroupBy string
	Agg     Agg
	Measure string
}

// ResultRow is one output group.
type ResultRow struct {
	Group string
	Value float64
}

// Run executes the query, returning groups sorted by name.
func (w *Warehouse) Run(q Query) ([]ResultRow, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	t, ok := w.tables[q.Table]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, q.Table)
	}
	for d := range q.Where {
		if _, ok := t.dimCols[d]; !ok {
			return nil, fmt.Errorf("%w: filter %q", ErrBadColumn, d)
		}
	}
	if q.GroupBy != "" {
		if _, ok := t.dimCols[q.GroupBy]; !ok {
			return nil, fmt.Errorf("%w: group-by %q", ErrBadColumn, q.GroupBy)
		}
	}
	var measure []float64
	if q.Agg != Count {
		m, ok := t.measureCols[q.Measure]
		if !ok {
			return nil, fmt.Errorf("%w: measure %q", ErrBadColumn, q.Measure)
		}
		measure = m
	}
	switch q.Agg {
	case Count, Sum, Avg, Min, Max:
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadAggregate, q.Agg)
	}

	type acc struct {
		count    int
		sum      float64
		min, max float64
	}
	groups := map[string]*acc{}
	for i := 0; i < t.rows; i++ {
		match := true
		for d, want := range q.Where {
			if t.dimCols[d][i] != want {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		key := ""
		if q.GroupBy != "" {
			key = t.dimCols[q.GroupBy][i]
		}
		a := groups[key]
		if a == nil {
			a = &acc{min: math.Inf(1), max: math.Inf(-1)}
			groups[key] = a
		}
		a.count++
		if measure != nil {
			v := measure[i]
			a.sum += v
			if v < a.min {
				a.min = v
			}
			if v > a.max {
				a.max = v
			}
		}
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ResultRow, 0, len(keys))
	for _, k := range keys {
		a := groups[k]
		var v float64
		switch q.Agg {
		case Count:
			v = float64(a.count)
		case Sum:
			v = a.sum
		case Avg:
			v = a.sum / float64(a.count)
		case Min:
			v = a.min
		case Max:
			v = a.max
		}
		out = append(out, ResultRow{Group: k, Value: v})
	}
	return out, nil
}
