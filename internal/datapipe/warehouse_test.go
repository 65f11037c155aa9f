package datapipe

import (
	"errors"
	"math"
	"testing"
)

func seededWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := NewWarehouse()
	if err := w.CreateTable("predictions", []string{"label", "device"}, []string{"latency_ms", "confidence"}); err != nil {
		t.Fatal(err)
	}
	rows := []WarehouseRow{
		{Dims: map[string]string{"label": "pizza", "device": "gpu"}, Measures: map[string]float64{"latency_ms": 10, "confidence": 0.9}},
		{Dims: map[string]string{"label": "pizza", "device": "edge"}, Measures: map[string]float64{"latency_ms": 200, "confidence": 0.8}},
		{Dims: map[string]string{"label": "sushi", "device": "gpu"}, Measures: map[string]float64{"latency_ms": 12, "confidence": 0.95}},
		{Dims: map[string]string{"label": "sushi", "device": "gpu"}, Measures: map[string]float64{"latency_ms": 8, "confidence": 0.85}},
	}
	if err := w.Insert("predictions", rows...); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWarehouseGroupByCount(t *testing.T) {
	w := seededWarehouse(t)
	res, err := w.Run(Query{Table: "predictions", GroupBy: "label", Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Group != "pizza" || res[0].Value != 2 || res[1].Value != 2 {
		t.Errorf("count by label: %+v", res)
	}
}

func TestWarehouseFilteredAvg(t *testing.T) {
	w := seededWarehouse(t)
	res, err := w.Run(Query{Table: "predictions", Where: map[string]string{"device": "gpu"},
		GroupBy: "label", Agg: Avg, Measure: "latency_ms"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("groups: %+v", res)
	}
	if res[0].Group != "pizza" || res[0].Value != 10 {
		t.Errorf("pizza avg: %+v", res[0])
	}
	if res[1].Group != "sushi" || res[1].Value != 10 { // (12+8)/2
		t.Errorf("sushi avg: %+v", res[1])
	}
}

func TestWarehouseGlobalMinMaxSum(t *testing.T) {
	w := seededWarehouse(t)
	for agg, want := range map[Agg]float64{Min: 8, Max: 200, Sum: 230} {
		res, err := w.Run(Query{Table: "predictions", Agg: agg, Measure: "latency_ms"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || math.Abs(res[0].Value-want) > 1e-12 {
			t.Errorf("%s = %+v, want %v", agg, res, want)
		}
	}
}

func TestWarehouseErrors(t *testing.T) {
	w := seededWarehouse(t)
	if _, err := w.Run(Query{Table: "ghost", Agg: Count}); !errors.Is(err, ErrNoTable) {
		t.Errorf("missing table err = %v", err)
	}
	if _, err := w.Run(Query{Table: "predictions", GroupBy: "ghost", Agg: Count}); !errors.Is(err, ErrBadColumn) {
		t.Errorf("bad group-by err = %v", err)
	}
	if _, err := w.Run(Query{Table: "predictions", Agg: Avg, Measure: "ghost"}); !errors.Is(err, ErrBadColumn) {
		t.Errorf("bad measure err = %v", err)
	}
	if _, err := w.Run(Query{Table: "predictions", Where: map[string]string{"ghost": "x"}, Agg: Count}); !errors.Is(err, ErrBadColumn) {
		t.Errorf("bad filter err = %v", err)
	}
	if _, err := w.Run(Query{Table: "predictions", Agg: Agg("median"), Measure: "latency_ms"}); !errors.Is(err, ErrBadAggregate) {
		t.Errorf("bad aggregate err = %v", err)
	}
	if err := w.Insert("predictions", WarehouseRow{Dims: map[string]string{"label": "x"}}); !errors.Is(err, ErrSchema) {
		t.Errorf("schema violation err = %v", err)
	}
	if err := w.Insert("ghost"); !errors.Is(err, ErrNoTable) {
		t.Errorf("insert missing table err = %v", err)
	}
}

func TestWarehouseEmptyGroupResult(t *testing.T) {
	w := seededWarehouse(t)
	res, err := w.Run(Query{Table: "predictions", Where: map[string]string{"device": "tpu"}, Agg: Count})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("empty filter returned %+v", res)
	}
}

func TestWarehouseRowsAndIdempotentCreate(t *testing.T) {
	w := seededWarehouse(t)
	if n := w.tables["predictions"].rows; n != 4 {
		t.Errorf("rows = %d", n)
	}
	if err := w.CreateTable("predictions", nil, nil); err != nil {
		t.Errorf("idempotent create: %v", err)
	}
	if n := w.tables["predictions"].rows; n != 4 {
		t.Error("re-create wiped data")
	}
}

func BenchmarkWarehouseQuery(b *testing.B) {
	w := NewWarehouse()
	_ = w.CreateTable("t", []string{"d"}, []string{"m"})
	rows := make([]WarehouseRow, 10000)
	for i := range rows {
		rows[i] = WarehouseRow{Dims: map[string]string{"d": string(rune('a' + i%10))},
			Measures: map[string]float64{"m": float64(i)}}
	}
	_ = w.Insert("t", rows...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(Query{Table: "t", GroupBy: "d", Agg: Avg, Measure: "m"}); err != nil {
			b.Fatal(err)
		}
	}
}
