package serve

import (
	"errors"
	"math"
)

// Autoscaling study: the course's Unit-2 horizontal-scaling exercise and
// Unit-6 capacity question meet the paper's cost theme. Given a diurnal
// request-rate curve, compare statically provisioning for the peak
// against scaling instance count with load, reporting instance-hours
// (the billable quantity) and overload exposure.

// LoadCurve returns requests/second as a function of the hour-of-day
// [0, 24).
type LoadCurve func(hour float64) float64

// DiurnalCurve models a photo-sharing service's day: a base rate with an
// evening peak of peakFactor times the base around hour 20.
//
//lint:ignore deadcode the autoscale block of EXPERIMENTS.md, which TestExperimentsDoc renders, drives it
func DiurnalCurve(baseRPS, peakFactor float64) LoadCurve {
	return func(hour float64) float64 {
		// Cosine bump centered at 20:00 with ~6 h half-width.
		phase := (hour - 20) / 6 * math.Pi
		bump := 0.0
		if phase > -math.Pi && phase < math.Pi {
			bump = (math.Cos(phase) + 1) / 2
		}
		return baseRPS * (1 + (peakFactor-1)*bump)
	}
}

// AutoscalePolicy adjusts replica count from observed load.
type AutoscalePolicy struct {
	Min, Max int
	// TargetUtilization is the per-instance utilization setpoint.
	TargetUtilization float64
}

// ScalingOutcome summarizes a 24-hour run of one provisioning strategy.
type ScalingOutcome struct {
	InstanceHours float64
	// OverloadHours counts time where offered load exceeded capacity.
	OverloadHours float64
	// MeanUtilization averages load/capacity across the day.
	MeanUtilization float64
	// PeakReplicas is the largest replica count used.
	PeakReplicas int
}

// perInstanceRPS returns one instance's sustainable request rate.
func perInstanceRPS(cfg Config) float64 {
	one := cfg
	one.Instances = 1
	return one.Throughput()
}

// SimulateStatic provisions `replicas` instances all day.
//
//lint:ignore deadcode the autoscale block of EXPERIMENTS.md, which TestExperimentsDoc renders, drives it
func SimulateStatic(cfg Config, curve LoadCurve, replicas int) (ScalingOutcome, error) {
	if replicas < 1 {
		return ScalingOutcome{}, errors.New("serve: need at least one replica")
	}
	return simulateDay(cfg, curve, func(float64, int) int { return replicas })
}

// SimulateAutoscaled adjusts replicas every 15-minute tick toward the
// utilization target (scale-up immediate; scale-down one step at a time,
// the conservative HPA default).
//
//lint:ignore deadcode the autoscale block of EXPERIMENTS.md, which TestExperimentsDoc renders, drives it
func SimulateAutoscaled(cfg Config, curve LoadCurve, policy AutoscalePolicy) (ScalingOutcome, error) {
	if policy.Min < 1 || policy.Max < policy.Min {
		return ScalingOutcome{}, errors.New("serve: bad autoscale bounds")
	}
	if policy.TargetUtilization <= 0 || policy.TargetUtilization > 1 {
		return ScalingOutcome{}, errors.New("serve: target utilization outside (0, 1]")
	}
	capOne := perInstanceRPS(cfg)
	return simulateDay(cfg, curve, func(hour float64, current int) int {
		lambda := curve(hour)
		desired := int(math.Ceil(lambda / (capOne * policy.TargetUtilization)))
		if desired < policy.Min {
			desired = policy.Min
		}
		if desired > policy.Max {
			desired = policy.Max
		}
		if desired < current-1 {
			desired = current - 1 // gradual scale-down
		}
		return desired
	})
}

// simulateDay steps a 24-hour day in 15-minute ticks.
func simulateDay(cfg Config, curve LoadCurve, replicasAt func(hour float64, current int) int) (ScalingOutcome, error) {
	const step = 0.25
	capOne := perInstanceRPS(cfg)
	if capOne <= 0 {
		return ScalingOutcome{}, errors.New("serve: configuration has zero throughput")
	}
	var out ScalingOutcome
	current := replicasAt(0, 1)
	var utilSum float64
	ticks := 0
	for hour := 0.0; hour < 24; hour += step {
		current = replicasAt(hour, current)
		lambda := curve(hour)
		capacity := capOne * float64(current)
		out.InstanceHours += float64(current) * step
		if lambda > capacity {
			out.OverloadHours += step
		}
		util := lambda / capacity
		if util > 1 {
			util = 1
		}
		utilSum += util
		ticks++
		if current > out.PeakReplicas {
			out.PeakReplicas = current
		}
	}
	out.MeanUtilization = utilSum / float64(ticks)
	return out, nil
}

// PeakReplicasNeeded returns the static replica count that never
// overloads for the curve.
//
//lint:ignore deadcode the autoscale block of EXPERIMENTS.md, which TestExperimentsDoc renders, drives it
func PeakReplicasNeeded(cfg Config, curve LoadCurve) int {
	capOne := perInstanceRPS(cfg)
	peak := 0.0
	for hour := 0.0; hour < 24; hour += 0.25 {
		if l := curve(hour); l > peak {
			peak = l
		}
	}
	return int(math.Ceil(peak / capOne))
}
