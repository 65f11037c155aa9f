package tracking

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestArtifactAndTagErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.GetArtifact("ghost", "p"); !errors.Is(err, ErrNotFound) {
		t.Errorf("artifact of missing run err = %v", err)
	}
	if err := s.LogArtifact("ghost", "p", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("artifact on missing run err = %v", err)
	}
	if _, err := s.GetRun("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get missing run err = %v", err)
	}
	if _, err := s.StartRun("ghost-exp", "r"); !errors.Is(err, ErrNotFound) {
		t.Errorf("run under missing experiment err = %v", err)
	}
	exp := s.CreateExperiment("e")
	run, _ := s.StartRun(exp.ID, "r")
	mustOK(t, s.LogArtifact(run.ID, "a", []byte("x")))
	if _, err := s.GetArtifact(run.ID, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing artifact err = %v", err)
	}
}

func TestLatestVersionAnyStage(t *testing.T) {
	s := NewStore()
	exp := s.CreateExperiment("e")
	run, _ := s.StartRun(exp.ID, "r")
	mustOK(t, s.LogArtifact(run.ID, "m", []byte("x")))
	v1, _ := s.CreateModelVersion("clf", run.ID, "m")
	v2, _ := s.CreateModelVersion("clf", run.ID, "m")
	_ = v1
	latest, err := s.LatestVersion("clf", "")
	if err != nil || latest.Version != v2.Version {
		t.Errorf("LatestVersion(any) = %+v, %v", latest, err)
	}
	if _, err := s.LatestVersion("ghost", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing model err = %v", err)
	}
}

func TestServerBadBodies(t *testing.T) {
	srv := httptest.NewServer(NewServer(NewStore()))
	defer srv.Close()
	for _, path := range []string{
		"/api/experiments", "/api/runs", "/api/runs/x/params",
		"/api/runs/x/metrics", "/api/runs/x/end", "/api/models/m/versions",
		"/api/models/m/versions/1/stage",
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("POST %s with truncated JSON returned 200", path)
		}
	}
	// Bad version segment.
	body, _ := json.Marshal(map[string]string{"stage": "Staging"})
	resp, err := http.Post(srv.URL+"/api/models/m/versions/abc/stage", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("non-numeric version accepted")
	}
	// Latest for a missing model.
	getResp, err := http.Get(srv.URL + "/api/models/ghost/latest")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Errorf("latest of missing model status = %d", getResp.StatusCode)
	}
	// Listing runs of a missing experiment yields an empty list (200).
	lr, err := http.Get(srv.URL + "/api/experiments/ghost/runs")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if lr.StatusCode != http.StatusOK {
		t.Errorf("list runs status = %d", lr.StatusCode)
	}
}

func TestServerEndDefaultsToFinished(t *testing.T) {
	store := NewStore()
	srv := httptest.NewServer(NewServer(store))
	defer srv.Close()
	exp := store.CreateExperiment("e")
	run, _ := store.StartRun(exp.ID, "r")
	resp, err := http.Post(srv.URL+"/api/runs/"+run.ID+"/end", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, _ := store.GetRun(run.ID)
	if got.Status != StatusFinished {
		t.Errorf("default end status = %s", got.Status)
	}
}
