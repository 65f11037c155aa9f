package datapipe

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// ErrNoEntity is returned for lookups of unknown entities.
var ErrNoEntity = errors.New("datapipe: entity not found")

// FeatureStore unifies batch and streaming feature sources: batch ETL
// output is ingested wholesale, streaming updates arrive per event, and
// both training (point-in-time reads over history) and inference (latest
// online values) read the same definitions — the architecture the Unit-8
// lecture presents as the bridge between data systems and ML serving.
type FeatureStore struct {
	mu sync.Mutex
	// history holds timestamped feature values per entity, appended in
	// ingestion order.
	history map[string][]featureRow
}

type featureRow struct {
	t      float64
	fields map[string]float64
}

// NewFeatureStore returns an empty store.
func NewFeatureStore() *FeatureStore {
	return &FeatureStore{history: map[string][]featureRow{}}
}

// IngestBatch loads ETL output stamped at time t (a materialization run).
func (fs *FeatureStore) IngestBatch(records []Record, t float64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, r := range records {
		fields := make(map[string]float64, len(r.Fields))
		for k, v := range r.Fields {
			fields[k] = v
		}
		fs.history[r.Key] = append(fs.history[r.Key], featureRow{t: t, fields: fields})
	}
}

// IngestStream applies one streaming update (partial fields merge over
// the entity's latest values) at time t.
func (fs *FeatureStore) IngestStream(key string, fields map[string]float64, t float64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	merged := map[string]float64{}
	rows := fs.history[key]
	if len(rows) > 0 {
		for k, v := range rows[len(rows)-1].fields {
			merged[k] = v
		}
	}
	for k, v := range fields {
		merged[k] = v
	}
	fs.history[key] = append(fs.history[key], featureRow{t: t, fields: merged})
}

// ConsumeStream polls a broker topic and ingests JSON-encoded feature
// updates ({"key":..., "t":..., "fields":{...}}), returning how many were
// applied. Malformed messages are counted and skipped.
func (fs *FeatureStore) ConsumeStream(b *Broker, topic, group string, max int) (applied, skipped int, err error) {
	msgs, err := b.Poll(topic, group, max)
	if err != nil {
		return 0, 0, err
	}
	for _, m := range msgs {
		var update struct {
			Key    string             `json:"key"`
			T      float64            `json:"t"`
			Fields map[string]float64 `json:"fields"`
		}
		if jerr := json.Unmarshal(m.Value, &update); jerr != nil || update.Key == "" {
			skipped++
			continue
		}
		fs.IngestStream(update.Key, update.Fields, update.T)
		applied++
	}
	return applied, skipped, nil
}

// AsOf returns the entity's features as of time t (point-in-time-correct
// training reads, preventing feature leakage from the future).
func (fs *FeatureStore) AsOf(key string, t float64) (map[string]float64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	rows := fs.history[key]
	var best *featureRow
	for i := range rows {
		if rows[i].t <= t {
			best = &rows[i]
		}
	}
	if best == nil {
		return nil, fmt.Errorf("%w: %q as of %v", ErrNoEntity, key, t)
	}
	out := make(map[string]float64, len(best.fields))
	for k, v := range best.fields {
		out[k] = v
	}
	return out, nil
}
