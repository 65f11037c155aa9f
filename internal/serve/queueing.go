package serve

import (
	"errors"
	"math"
)

// ErrOverloaded is returned when offered load exceeds capacity.
var ErrOverloaded = errors.New("serve: arrival rate exceeds service capacity")

// LoadEstimate predicts steady-state behavior of a serving configuration
// under Poisson arrivals at rate lambda (requests/second) using an M/M/c
// approximation: c = Instances servers, each serving batches of the
// configured size with exponential-ish service times. Batching is folded
// in by treating one batch as one service unit, so the effective arrival
// rate is lambda / batch.
type LoadEstimate struct {
	Lambda      float64
	Utilization float64
	// QueueWaitMS is the expected time a request waits before its batch
	// starts executing (Erlang-C).
	QueueWaitMS float64
	// BatchWaitMS is the mean time spent waiting for the batch window to
	// fill (half the fill time at the offered rate, capped by MaxDelay
	// semantics — callers pass their delay cap in via maxDelayMS).
	BatchWaitMS float64
	// ServiceMS is the batch execution time.
	ServiceMS float64
	// TotalMS is the end-to-end expected latency.
	TotalMS float64
	// P95MS approximates the 95th percentile assuming exponential
	// waiting-time tails.
	P95MS float64
}

// EstimateLoad evaluates cfg under lambda requests/second with the given
// batching delay cap in milliseconds.
func EstimateLoad(cfg Config, lambda, maxDelayMS float64) (LoadEstimate, error) {
	if lambda <= 0 {
		return LoadEstimate{}, errors.New("serve: non-positive arrival rate")
	}
	b := cfg.MaxBatch
	if b < 1 {
		b = 1
	}
	c := cfg.Instances
	if c < 1 {
		c = 1
	}
	if c > cfg.Device.MaxConcurrent {
		c = cfg.Device.MaxConcurrent
	}
	// Two batching regimes. Light traffic: batches flush at the delay cap
	// before filling, so the realized batch size is what arrives within
	// the window. Heavy traffic: a backlog keeps batches full, so the
	// realized size is MaxBatch. Pick the light regime when it is
	// feasible; fall back to the full-batch regime (which is what the
	// real batcher converges to under congestion).
	latencyAt := func(size float64) float64 {
		lat := cfg.Model.BaseLatencyMS / cfg.Device.SpeedFactor
		if cfg.IsINT8 {
			lat /= cfg.Device.INT8Boost
		}
		return lat * (1 + batchScale*(size-1))
	}
	lightBatch := math.Min(float64(b), lambda*maxDelayMS/1000+1)
	type regime struct {
		batch, serviceMS, mu, rho float64
	}
	mk := func(size float64) regime {
		s := latencyAt(size)
		mu := 1000 / s
		return regime{batch: size, serviceMS: s, mu: mu,
			rho: (lambda / size) / (float64(c) * mu)}
	}
	reg := mk(lightBatch)
	if reg.rho >= 1 {
		reg = mk(float64(b))
	}
	if reg.rho >= 1 {
		return LoadEstimate{Lambda: lambda, Utilization: reg.rho}, ErrOverloaded
	}
	serviceMS := reg.serviceMS
	mu := reg.mu
	lambdaBatch := lambda / reg.batch
	rho := reg.rho

	// Mean wait for a random arrival is half the batch-fill window,
	// bounded by the flush cap.
	fillMS := (reg.batch - 1) / lambda * 1000
	if fillMS > maxDelayMS {
		fillMS = maxDelayMS
	}
	batchWait := fillMS / 2

	// Erlang-C probability of queueing.
	a := lambdaBatch / mu // offered load in Erlangs
	pw := erlangC(c, a)
	queueWaitS := pw / (float64(c)*mu - lambdaBatch)

	est := LoadEstimate{
		Lambda:      lambda,
		Utilization: rho,
		QueueWaitMS: queueWaitS * 1000,
		BatchWaitMS: batchWait,
		ServiceMS:   serviceMS,
	}
	est.TotalMS = est.QueueWaitMS + est.BatchWaitMS + est.ServiceMS
	// P95: service is roughly deterministic; queue wait has an
	// exponential tail with rate (c·mu − lambdaBatch) conditioned on
	// waiting.
	tailRate := float64(c)*mu - lambdaBatch
	p95Queue := 0.0
	if pw > 0.05 {
		p95Queue = math.Log(pw/0.05) / tailRate * 1000
	}
	est.P95MS = p95Queue + fillMS + serviceMS
	return est, nil
}

// erlangC returns the probability an arrival must queue in an M/M/c
// system with offered load a Erlangs.
func erlangC(c int, a float64) float64 {
	// Iterative Erlang-B then convert.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho + rho*b)
}
