// Package appserver assembles the substrates into the deployable
// artifact the course's students actually ship: an HTTP model-serving
// service with dynamic batching, safeguard filtering, cognitive forcing
// on low-confidence predictions, operational metrics in a Prometheus-
// style exposition, and production feedback collection.
//
// Endpoints:
//
//	POST /predict   {"features": [...], "caption": "..."}
//	                -> {"id", "label", "confidence", "warning", "blocked"}
//	POST /feedback  {"id": ..., "label": ...}
//	GET  /healthz   -> 200 "ok"
//	GET  /metrics   -> text/plain counters and latency summary
package appserver

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/mlcore"
	"repro/internal/monitor"
	"repro/internal/safeguard"
	"repro/internal/serve"
)

// Config assembles a server.
type Config struct {
	Model *mlcore.SoftmaxClassifier
	// Labels maps class indices to names; optional (falls back to
	// "class-N").
	Labels []string
	// MaxBatch/MaxDelay/Instances configure the dynamic batcher.
	MaxBatch  int
	MaxDelay  time.Duration
	Instances int
	// Safeguards screens request captions; nil disables filtering.
	Safeguards *safeguard.Pipeline
	// Forcing wraps low-confidence predictions; zero value disables.
	Forcing safeguard.CognitiveForcing
	// Clock supplies request timestamps for latency metrics. nil means
	// the machine clock (the right default for cmd/ entry points);
	// tests inject clock.Manual so the /metrics latencies are
	// deterministic.
	Clock clock.Clock
}

// Server is the running service.
type Server struct {
	cfg      Config
	clk      clock.Clock
	batcher  *serve.Batcher
	mux      *http.ServeMux
	feedback *monitor.FeedbackCollector

	mu        sync.Mutex
	requests  int64
	errors    int64
	blocked   int64
	latencies []float64 // ms, bounded ring
}

// New builds the server; call Close when done.
func New(cfg Config) (*Server, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("appserver: nil model")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.Instances == 0 {
		cfg.Instances = 2
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System{}
	}
	s := &Server{cfg: cfg, clk: cfg.Clock, feedback: monitor.NewFeedbackCollector()}
	model := cfg.Model
	s.batcher = serve.NewBatcherClock(cfg.MaxBatch, cfg.MaxDelay, cfg.Instances,
		func(inputs [][]float64) ([][]float64, error) {
			out := make([][]float64, len(inputs))
			for i, x := range inputs {
				p := model.PredictProba(x)
				best, conf := 0, p[0]
				for c, v := range p {
					if v > conf {
						best, conf = c, v
					}
				}
				out[i] = []float64{float64(best), conf}
			}
			return out, nil
		}, cfg.Clock)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /predict", s.handlePredict)
	s.mux.HandleFunc("POST /feedback", s.handleFeedback)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok"))
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the batcher.
func (s *Server) Close() { s.batcher.Close() }

// PredictRequest is the /predict body.
type PredictRequest struct {
	Features []float64 `json:"features"`
	Caption  string    `json:"caption"`
}

// PredictResponse is the /predict reply.
type PredictResponse struct {
	ID         string  `json:"id"`
	Label      string  `json:"label"`
	Confidence float64 `json:"confidence"`
	Warning    string  `json:"warning,omitempty"`
	// RequireConfirmation mirrors the cognitive-forcing policy.
	RequireConfirmation bool   `json:"require_confirmation,omitempty"`
	Blocked             bool   `json:"blocked,omitempty"`
	Reason              string `json:"reason,omitempty"`
}

func (s *Server) label(class int) string {
	if class >= 0 && class < len(s.cfg.Labels) {
		return s.cfg.Labels[class]
	}
	return fmt.Sprintf("class-%d", class)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := s.clk.Now()
	var req PredictRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.count(&s.errors)
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return
	}
	if len(req.Features) != s.cfg.Model.Features {
		s.count(&s.errors)
		http.Error(w, fmt.Sprintf(`{"error":"want %d features"}`, s.cfg.Model.Features), http.StatusBadRequest)
		return
	}
	if s.cfg.Safeguards != nil && req.Caption != "" {
		if v := s.cfg.Safeguards.Check(req.Caption); v.Decision == safeguard.Block {
			s.count(&s.blocked)
			writeJSON(w, http.StatusOK, PredictResponse{Blocked: true,
				Reason: fmt.Sprintf("%s: %s", v.Rule, v.Detail)})
			return
		}
	}
	resp, err := s.batcher.Submit(req.Features)
	if err != nil || resp.Err != nil {
		s.count(&s.errors)
		http.Error(w, `{"error":"inference failed"}`, http.StatusInternalServerError)
		return
	}
	class, conf := int(resp.Output[0]), resp.Output[1]
	forced := s.cfg.Forcing.Wrap(safeguard.Prediction{Label: s.label(class), Confidence: conf})
	id := s.feedback.Record(req.Caption, forced.Prediction.Label, conf)

	s.mu.Lock()
	s.requests++
	if len(s.latencies) < 4096 {
		s.latencies = append(s.latencies, float64(clock.Since(s.clk, start).Microseconds())/1000)
	}
	s.mu.Unlock()

	writeJSON(w, http.StatusOK, PredictResponse{
		ID: id, Label: forced.Prediction.Label, Confidence: conf,
		Warning:             forced.Disclose,
		RequireConfirmation: forced.RequireConfirmation,
	})
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID    string `json:"id"`
		Label string `json:"label"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, `{"error":"bad request body"}`, http.StatusBadRequest)
		return
	}
	if err := s.feedback.UserFeedback(req.ID, req.Label); err != nil {
		http.Error(w, `{"error":"unknown prediction id"}`, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	requests, errors, blocked := s.requests, s.errors, s.blocked
	lat := append([]float64(nil), s.latencies...)
	s.mu.Unlock()
	sort.Float64s(lat)
	q := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p * float64(len(lat)-1))
		return lat[i]
	}
	batches, brequests, meanBatch := s.batcher.Stats()
	acc, hasAcc := s.feedback.ProductionAccuracy()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "gourmetgram_requests_total %d\n", requests)
	fmt.Fprintf(w, "gourmetgram_errors_total %d\n", errors)
	fmt.Fprintf(w, "gourmetgram_blocked_total %d\n", blocked)
	fmt.Fprintf(w, "gourmetgram_latency_ms{quantile=\"0.5\"} %.3f\n", q(0.5))
	fmt.Fprintf(w, "gourmetgram_latency_ms{quantile=\"0.95\"} %.3f\n", q(0.95))
	fmt.Fprintf(w, "gourmetgram_latency_ms{quantile=\"0.99\"} %.3f\n", q(0.99))
	fmt.Fprintf(w, "gourmetgram_batches_total %d\n", batches)
	fmt.Fprintf(w, "gourmetgram_batched_requests_total %d\n", brequests)
	fmt.Fprintf(w, "gourmetgram_mean_batch_size %.2f\n", meanBatch)
	if hasAcc {
		fmt.Fprintf(w, "gourmetgram_production_accuracy %.4f\n", acc)
	}
}

func (s *Server) count(c *int64) {
	s.mu.Lock()
	*c++
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
