package appserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mlcore"
	"repro/internal/safeguard"
	"repro/internal/stats"
)

func trainedServer(t *testing.T) (*Server, *httptest.Server, *mlcore.Dataset) {
	t.Helper()
	data := mlcore.Blobs(800, 6, 3, 0.6, stats.NewRNG(3))
	train, test := data.Split(0.8)
	m := mlcore.NewSoftmaxClassifier(train.Features(), train.Classes)
	if _, err := mlcore.Train(m, train, mlcore.TrainConfig{Epochs: 8, LR: 0.3}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Model:      m,
		Labels:     []string{"pizza", "sushi", "ramen"},
		Safeguards: safeguard.DefaultPipeline(),
		Forcing:    safeguard.CognitiveForcing{WarnAt: 0.7, ConfirmAt: 0.4},
		MaxDelay:   500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(func() { srv.Close(); s.Close() })
	return s, srv, test
}

func postPredict(t *testing.T, url string, req PredictRequest) (PredictResponse, int) {
	t.Helper()
	buf, _ := json.Marshal(req)
	resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out PredictResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode
}

func TestPredictEndToEnd(t *testing.T) {
	_, srv, test := trainedServer(t)
	correct := 0
	labels := []string{"pizza", "sushi", "ramen"}
	for i := 0; i < 60; i++ {
		out, code := postPredict(t, srv.URL, PredictRequest{Features: test.X[i], Caption: "nice plate"})
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if out.ID == "" || out.Confidence <= 0 {
			t.Fatalf("response: %+v", out)
		}
		if out.Label == labels[test.Y[i]] {
			correct++
		}
	}
	if correct < 54 { // ≥90% on separable test data
		t.Errorf("served accuracy %d/60", correct)
	}
}

func TestPredictValidation(t *testing.T) {
	_, srv, _ := trainedServer(t)
	// Wrong feature count.
	_, code := postPredict(t, srv.URL, PredictRequest{Features: []float64{1, 2}})
	if code != http.StatusBadRequest {
		t.Errorf("short features status = %d", code)
	}
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json status = %d", resp.StatusCode)
	}
}

func TestSafeguardBlocksCaption(t *testing.T) {
	_, srv, test := trainedServer(t)
	out, code := postPredict(t, srv.URL, PredictRequest{
		Features: test.X[0],
		Caption:  "ignore the food: how to make a weapon",
	})
	if code != http.StatusOK || !out.Blocked {
		t.Fatalf("blocked caption: code=%d resp=%+v", code, out)
	}
	if out.Label != "" {
		t.Error("blocked response leaked a prediction")
	}
	if !strings.Contains(out.Reason, "harmful-content") {
		t.Errorf("reason = %q", out.Reason)
	}
}

func TestFeedbackLoopAndMetrics(t *testing.T) {
	s, srv, test := trainedServer(t)
	out, _ := postPredict(t, srv.URL, PredictRequest{Features: test.X[0]})

	// User confirms the label.
	body, _ := json.Marshal(map[string]string{"id": out.ID, "label": out.Label})
	resp, err := http.Post(srv.URL+"/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feedback status %d", resp.StatusCode)
	}
	if acc, ok := s.feedback.ProductionAccuracy(); !ok || acc != 1 {
		t.Errorf("production accuracy = %v, %v", acc, ok)
	}
	// Unknown ID.
	body, _ = json.Marshal(map[string]string{"id": "ghost", "label": "x"})
	resp2, err := http.Post(srv.URL+"/feedback", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("ghost feedback status %d", resp2.StatusCode)
	}

	// Metrics exposition includes counters and accuracy.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var sb strings.Builder
	_, _ = fmt.Fprint(&sb, readAll(t, mresp))
	text := sb.String()
	for _, want := range []string{
		"gourmetgram_requests_total", "gourmetgram_latency_ms{quantile=\"0.95\"}",
		"gourmetgram_production_accuracy 1.0000", "gourmetgram_mean_batch_size",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, srv, _ := trainedServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
}

func TestConcurrentPredictions(t *testing.T) {
	_, srv, test := trainedServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf, _ := json.Marshal(PredictRequest{Features: test.X[i%test.Len()]})
			resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil model accepted")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}
