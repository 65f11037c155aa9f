package tracking

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestRunLifecycle(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("food11")
	run, err := s.StartRun(exp.ID, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	mustOK(t, s.LogParam(run.ID, "lr", "3e-4"))
	for step := 0; step < 5; step++ {
		mustOK(t, s.LogMetric(run.ID, "loss", step, 1.0/float64(step+1)))
	}
	mustOK(t, s.LogArtifact(run.ID, "model/weights.bin", []byte("weights-v1")))
	mustOK(t, s.EndRun(run.ID, StatusFinished))

	got, err := s.GetRun(run.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Params["lr"] != "3e-4" {
		t.Errorf("metadata lost: %+v", got)
	}
	if len(got.Metrics["loss"]) != 5 {
		t.Errorf("metric history length %d", len(got.Metrics["loss"]))
	}
	if v, ok := got.LastMetric("loss"); !ok || v != 0.2 {
		t.Errorf("last loss = %v, %v", v, ok)
	}
	if got.EndTime <= got.StartTime {
		t.Errorf("end %v <= start %v", got.EndTime, got.StartTime)
	}
	data, err := s.GetArtifact(run.ID, "model/weights.bin")
	if err != nil || !bytes.Equal(data, []byte("weights-v1")) {
		t.Errorf("artifact round trip: %q, %v", data, err)
	}
}

func TestFinishedRunIsImmutable(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("e")
	run, _ := s.StartRun(exp.ID, "r")
	mustOK(t, s.EndRun(run.ID, StatusFinished))
	if err := s.LogParam(run.ID, "x", "1"); !errors.Is(err, ErrFinished) {
		t.Errorf("param after end err = %v", err)
	}
	if err := s.LogMetric(run.ID, "m", 0, 1); !errors.Is(err, ErrFinished) {
		t.Errorf("metric after end err = %v", err)
	}
	if err := s.EndRun(run.ID, StatusFailed); !errors.Is(err, ErrFinished) {
		t.Errorf("double end err = %v", err)
	}
}

func TestExperimentIdempotent(t *testing.T) {
	s := NewStore()
	a := s.CreateExperiment("same")
	b := s.CreateExperiment("same")
	if a.ID != b.ID {
		t.Error("re-creating experiment produced a new ID")
	}
}

func TestBestRun(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("tune")
	for i, acc := range []float64{0.71, 0.88, 0.79} {
		run, _ := s.StartRun(exp.ID, fmt.Sprintf("trial-%d", i))
		mustOK(t, s.LogMetric(run.ID, "val_acc", 0, acc))
		mustOK(t, s.EndRun(run.ID, StatusFinished))
	}
	// A still-running and a failed run must be ignored.
	running, _ := s.StartRun(exp.ID, "running")
	mustOK(t, s.LogMetric(running.ID, "val_acc", 0, 0.99))
	failed, _ := s.StartRun(exp.ID, "failed")
	mustOK(t, s.LogMetric(failed.ID, "val_acc", 0, 0.995))
	mustOK(t, s.EndRun(failed.ID, StatusFailed))

	best, err := s.BestRun(exp.ID, "val_acc", true)
	if err != nil {
		t.Fatal(err)
	}
	if best.Name != "trial-1" {
		t.Errorf("best = %s, want trial-1", best.Name)
	}
	worst, err := s.BestRun(exp.ID, "val_acc", false)
	if err != nil {
		t.Fatal(err)
	}
	if worst.Name != "trial-0" {
		t.Errorf("min = %s, want trial-0", worst.Name)
	}
	if _, err := s.BestRun(exp.ID, "bleu", true); !errors.Is(err, ErrNoMetric) {
		t.Errorf("missing metric err = %v", err)
	}
}

func TestSearchRunsSortedAndFiltered(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("e")
	for i := 0; i < 5; i++ {
		run, _ := s.StartRun(exp.ID, fmt.Sprintf("r%d", i))
		if i%2 == 0 {
			mustOK(t, s.EndRun(run.ID, StatusFinished))
		}
	}
	all := s.SearchRuns(exp.ID, nil)
	if len(all) != 5 {
		t.Fatalf("got %d runs", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].StartTime > all[i].StartTime {
			t.Fatal("runs not sorted by start time")
		}
	}
	finished := s.SearchRuns(exp.ID, func(r *Run) bool { return r.Status == StatusFinished })
	if len(finished) != 3 {
		t.Errorf("finished = %d, want 3", len(finished))
	}
}

func TestModelRegistryFlow(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("e")
	run, _ := s.StartRun(exp.ID, "train")
	mustOK(t, s.LogArtifact(run.ID, "model.onnx", []byte("v1-bytes")))
	mustOK(t, s.EndRun(run.ID, StatusFinished))

	v1, err := s.CreateModelVersion("food-classifier", run.ID, "model.onnx")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != 1 || v1.Stage != StageNone {
		t.Errorf("v1 = %+v", v1)
	}
	if _, err := s.TransitionStage("food-classifier", 1, StageStaging); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransitionStage("food-classifier", 1, StageProduction); err != nil {
		t.Fatal(err)
	}

	// Version 2 promotes; v1 is archived automatically.
	run2, _ := s.StartRun(exp.ID, "retrain")
	mustOK(t, s.LogArtifact(run2.ID, "model.onnx", []byte("v2-bytes")))
	mustOK(t, s.EndRun(run2.ID, StatusFinished))
	v2, err := s.CreateModelVersion("food-classifier", run2.ID, "model.onnx")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransitionStage("food-classifier", v2.Version, StageProduction); err != nil {
		t.Fatal(err)
	}
	prod, err := s.LatestVersion("food-classifier", StageProduction)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Version != 2 {
		t.Errorf("production version = %d, want 2", prod.Version)
	}
	if v1.Stage != StageArchived {
		t.Errorf("v1 stage = %s, want Archived", v1.Stage)
	}
	blob, err := s.LoadModel(prod)
	if err != nil || string(blob) != "v2-bytes" {
		t.Errorf("LoadModel = %q, %v", blob, err)
	}
}

func TestRegistryErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateModelVersion("m", "ghost-run", "p"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing run err = %v", err)
	}
	exp := s.CreateExperiment("e")
	run, _ := s.StartRun(exp.ID, "r")
	if _, err := s.CreateModelVersion("m", run.ID, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing artifact err = %v", err)
	}
	if _, err := s.TransitionStage("ghost", 1, StageStaging); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing model err = %v", err)
	}
	mustOK(t, s.LogArtifact(run.ID, "a", []byte("x")))
	if _, err := s.CreateModelVersion("m", run.ID, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TransitionStage("m", 5, StageStaging); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing version err = %v", err)
	}
	if _, err := s.TransitionStage("m", 1, Stage("Testing")); !errors.Is(err, ErrBadStage) {
		t.Errorf("bad stage err = %v", err)
	}
	if _, err := s.LatestVersion("m", StageProduction); !errors.Is(err, ErrNotFound) {
		t.Errorf("no production version err = %v", err)
	}
}

func TestHTTPServerEndToEnd(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()

	post := func(path string, body any) map[string]any {
		t.Helper()
		buf, _ := json.Marshal(body)
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return out
	}

	exp := post("/api/experiments", map[string]string{"name": "http-exp"})
	expID := exp["id"].(string)
	run := post("/api/runs", map[string]string{"experiment_id": expID, "name": "r1"})
	runID := run["id"].(string)
	post("/api/runs/"+runID+"/params", map[string]string{"key": "lr", "value": "0.01"})
	post("/api/runs/"+runID+"/metrics", map[string]any{"key": "loss", "step": 1, "value": 0.5})
	post("/api/runs/"+runID+"/end", map[string]string{"status": "FINISHED"})

	resp, err := http.Get(srv.URL + "/api/runs/" + runID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got Run
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Params["lr"] != "0.01" || got.Status != StatusFinished {
		t.Errorf("run via HTTP: %+v", got)
	}

	// Registry over HTTP needs an artifact; log directly then drive HTTP.
	run2, _ := store.StartRun(expID, "r2")
	mustOK(t, store.LogArtifact(run2.ID, "m.bin", []byte("x")))
	v := post("/api/models/clf/versions", map[string]string{"run_id": run2.ID, "artifact_path": "m.bin"})
	if v["version"].(float64) != 1 {
		t.Errorf("version = %v", v["version"])
	}
	post("/api/models/clf/versions/1/stage", map[string]string{"stage": "Production"})
	resp2, err := http.Get(srv.URL + "/api/models/clf/latest?stage=Production")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var latest ModelVersion
	if err := json.NewDecoder(resp2.Body).Decode(&latest); err != nil {
		t.Fatal(err)
	}
	if latest.Version != 1 || latest.Stage != StageProduction {
		t.Errorf("latest = %+v", latest)
	}
}

func TestHTTPNotFound(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/runs/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestConcurrentLogging(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("conc")
	run, _ := s.StartRun(exp.ID, "r")
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				_ = s.LogMetric(run.ID, fmt.Sprintf("m%d", g), i, float64(i))
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	got, _ := s.GetRun(run.ID)
	for g := 0; g < 8; g++ {
		if len(got.Metrics[fmt.Sprintf("m%d", g)]) != 100 {
			t.Errorf("metric m%d lost points: %d", g, len(got.Metrics[fmt.Sprintf("m%d", g)]))
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLogMetric(b *testing.B) {
	s := NewStore()
	exp := s.CreateExperiment("bench")
	run, _ := s.StartRun(exp.ID, "r")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.LogMetric(run.ID, "loss", i, float64(i))
	}
}
