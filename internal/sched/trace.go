package sched

import (
	"fmt"

	"repro/internal/stats"
)

// TraceConfig parameterizes the synthetic ML-cluster workload generator.
// Defaults are modeled on the heterogeneous mix the Unit-5 lecture
// discusses (MLaaS in the Wild): most jobs are small, short debugging or
// single-GPU runs; a heavy tail of multi-GPU long trainers dominates
// GPU-hours.
type TraceConfig struct {
	Jobs        int
	Users       int
	ArrivalMean float64 // mean hours between arrivals (exponential)
	// GPUDist maps gang size to relative frequency.
	GPUDist map[int]float64
	// DurationMean is the mean job duration in hours (lognormal, sigma
	// DurationSigma) for single-GPU jobs; duration scales mildly with
	// gang size.
	DurationMean  float64
	DurationSigma float64
}

// DefaultTrace returns the configuration used by the ablation benchmarks.
func DefaultTrace(jobs int) TraceConfig {
	return TraceConfig{
		Jobs:        jobs,
		Users:       12,
		ArrivalMean: 0.25,
		GPUDist: map[int]float64{
			1: 55, 2: 20, 4: 15, 8: 8, 16: 2,
		},
		DurationMean:  2.0,
		DurationSigma: 1.1,
	}
}

// GenerateTrace produces a deterministic synthetic job trace.
func GenerateTrace(cfg TraceConfig, rng *stats.RNG) []*Job {
	sizes := make([]int, 0, len(cfg.GPUDist))
	weights := make([]float64, 0, len(cfg.GPUDist))
	for _, s := range []int{1, 2, 4, 8, 16, 32, 64} {
		if w, ok := cfg.GPUDist[s]; ok {
			sizes = append(sizes, s)
			weights = append(weights, w)
		}
	}
	jobs := make([]*Job, 0, cfg.Jobs)
	t := 0.0
	for i := 0; i < cfg.Jobs; i++ {
		t += rng.Exponential(cfg.ArrivalMean)
		size := sizes[rng.Choice(weights)]
		// Bigger gangs tend to be longer trainings.
		scale := 1 + 0.3*float64(size-1)/8
		dur := rng.LogNormalMean(cfg.DurationMean*scale, cfg.DurationSigma)
		if dur < 0.05 {
			dur = 0.05
		}
		jobs = append(jobs, &Job{
			ID:       fmt.Sprintf("job-%04d", i),
			User:     fmt.Sprintf("user-%02d", rng.Intn(cfg.Users)),
			GPUs:     size,
			Duration: dur,
			Submit:   t,
			Weight:   1,
		})
	}
	return jobs
}
