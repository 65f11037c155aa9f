package datapipe

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
)

func rec(key string, fields map[string]float64) Record {
	return Record{Key: key, Fields: fields}
}

func TestETLStagesCompose(t *testing.T) {
	p := NewETL("food11-prep").
		Stage("filter", FilterFields("width", "height")).
		Stage("scale", Scale("width", 2)).
		Stage("derive", Derive("area", func(r Record) float64 { return r.Fields["width"] * r.Fields["height"] }))
	batch := []Record{
		rec("a", map[string]float64{"width": 10, "height": 5}),
		rec("b", map[string]float64{"width": 3, "height": 4}),
		rec("bad", map[string]float64{"width": 1}), // missing height
	}
	out, report, err := p.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("out = %d records", len(out))
	}
	if out[0].Fields["width"] != 20 || out[0].Fields["area"] != 100 {
		t.Errorf("record a: %+v", out[0].Fields)
	}
	if report.In != 3 || report.Out != 2 || len(report.DeadLetter) != 1 {
		t.Errorf("report: %+v", report)
	}
	if report.DeadLetter[0].Record.Key != "bad" || report.DeadLetter[0].Stage != "filter" {
		t.Errorf("dead letter: %+v", report.DeadLetter[0])
	}
}

func TestETLDoesNotMutateInput(t *testing.T) {
	p := NewETL("x").Stage("scale", Scale("v", 10))
	in := []Record{rec("a", map[string]float64{"v": 1})}
	if _, _, err := p.Run(in); err != nil {
		t.Fatal(err)
	}
	if in[0].Fields["v"] != 1 {
		t.Error("pipeline mutated input record")
	}
}

func TestETLNonDataErrorAborts(t *testing.T) {
	p := NewETL("x").Stage("boom", func(Record) ([]Record, error) {
		return nil, errors.New("pipeline bug")
	})
	if _, _, err := p.Run([]Record{rec("a", nil)}); err == nil {
		t.Error("non-ErrBadRecord error should abort the run")
	}
}

func TestBrokerProduceConsume(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("uploads")
	if err := b.Subscribe("uploads", "trainer", true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		off, err := b.Produce("uploads", fmt.Sprintf("img-%d", i), []byte("bytes"))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Errorf("offset = %d, want %d", off, i)
		}
	}
	msgs, err := b.Poll("uploads", "trainer", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 3 || msgs[0].Key != "img-0" {
		t.Errorf("poll 1: %v", msgs)
	}
	msgs, _ = b.Poll("uploads", "trainer", 10)
	if len(msgs) != 2 {
		t.Errorf("poll 2 got %d", len(msgs))
	}
	msgs, _ = b.Poll("uploads", "trainer", 10)
	if msgs != nil {
		t.Errorf("drained topic returned %v", msgs)
	}
}

func TestBrokerIndependentGroups(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t")
	_ = b.Subscribe("t", "g1", true)
	for i := 0; i < 4; i++ {
		_, _ = b.Produce("t", "k", nil)
	}
	// g2 subscribes at the tail: sees only future messages.
	_ = b.Subscribe("t", "g2", false)
	_, _ = b.Produce("t", "k5", nil)

	m1, _ := b.Poll("t", "g1", 100)
	m2, _ := b.Poll("t", "g2", 100)
	if len(m1) != 5 {
		t.Errorf("g1 got %d", len(m1))
	}
	if len(m2) != 1 || m2[0].Key != "k5" {
		t.Errorf("g2 got %v", m2)
	}
}

func TestBrokerErrors(t *testing.T) {
	b := NewBroker()
	if _, err := b.Produce("ghost", "k", nil); !errors.Is(err, ErrNoTopic) {
		t.Errorf("produce err = %v", err)
	}
	b.CreateTopic("t")
	if _, err := b.Poll("t", "ghost", 1); !errors.Is(err, ErrNoGroup) {
		t.Errorf("poll err = %v", err)
	}
	// Double subscribe keeps the original offset.
	_ = b.Subscribe("t", "g", true)
	_, _ = b.Produce("t", "k", nil)
	_ = b.Subscribe("t", "g", false) // should be a no-op
	msgs, _ := b.Poll("t", "g", 10)
	if len(msgs) != 1 {
		t.Errorf("idempotent subscribe broke offsets: %v", msgs)
	}
}

func TestFeatureStoreOnlineAndAsOf(t *testing.T) {
	fs := NewFeatureStore()
	fs.IngestBatch([]Record{rec("user-1", map[string]float64{"uploads": 3, "score": 0.5})}, 10)
	fs.IngestStream("user-1", map[string]float64{"uploads": 4}, 20)

	latest, err := fs.AsOf("user-1", 20)
	if err != nil {
		t.Fatal(err)
	}
	if latest["uploads"] != 4 || latest["score"] != 0.5 {
		t.Errorf("stream update did not merge over the batch: %v", latest)
	}
	// Point-in-time read at t=15 sees the batch values only.
	past, err := fs.AsOf("user-1", 15)
	if err != nil {
		t.Fatal(err)
	}
	if past["uploads"] != 3 {
		t.Errorf("as-of leakage: %v", past)
	}
	if _, err := fs.AsOf("user-1", 5); !errors.Is(err, ErrNoEntity) {
		t.Errorf("as-of before history err = %v", err)
	}
	if _, err := fs.AsOf("ghost", 20); !errors.Is(err, ErrNoEntity) {
		t.Errorf("missing entity err = %v", err)
	}
}

func TestFeatureStoreConsumeStream(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("features")
	_ = b.Subscribe("features", "fs", true)
	for i := 0; i < 3; i++ {
		msg, _ := json.Marshal(map[string]any{
			"key": fmt.Sprintf("u%d", i), "t": float64(i), "fields": map[string]float64{"x": float64(i)},
		})
		_, _ = b.Produce("features", "k", msg)
	}
	_, _ = b.Produce("features", "bad", []byte("not json"))

	fs := NewFeatureStore()
	applied, skipped, err := fs.ConsumeStream(b, "features", "fs", 100)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 3 || skipped != 1 {
		t.Errorf("applied=%d skipped=%d", applied, skipped)
	}
	for i := 0; i < 3; i++ {
		if _, err := fs.AsOf(fmt.Sprintf("u%d", i), 10); err != nil {
			t.Errorf("entity u%d not ingested: %v", i, err)
		}
	}
}

func TestBrokerConcurrentProducers(t *testing.T) {
	b := NewBroker()
	b.CreateTopic("t")
	_ = b.Subscribe("t", "g", true)
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, _ = b.Produce("t", "k", nil)
			}
		}()
	}
	wg.Wait()
	// Offsets are unique and dense.
	msgs, _ := b.Poll("t", "g", 1000)
	if len(msgs) != 800 {
		t.Errorf("polled %d messages, want 800", len(msgs))
	}
	for i, m := range msgs {
		if m.Offset != int64(i) {
			t.Fatalf("offset %d at position %d", m.Offset, i)
		}
	}
}

func BenchmarkETL(b *testing.B) {
	p := NewETL("bench").
		Stage("filter", FilterFields("v")).
		Stage("scale", Scale("v", 2))
	batch := make([]Record, 100)
	for i := range batch {
		batch[i] = rec(fmt.Sprint(i), map[string]float64{"v": float64(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Run(batch); err != nil {
			b.Fatal(err)
		}
	}
}
