package orchestrator

import "math"

// CheckpointPolicy sizes periodic checkpointing for a long-running job
// exposed to preemption: how often to pause and persist state, how long
// each write stalls the job, and how long a restore takes after a
// migration. Times are simulated hours, matching the simclock.
//
// The policy is pure data: the TrainController executes it,
// internal/train sizes the artifact, and PlanCheckpoints picks the
// interval from the classic trade-off — checkpoint too often and the
// write stalls dominate, too rarely and every preemption loses a long
// stretch of work.
type CheckpointPolicy struct {
	// IntervalHours is the training time between checkpoint starts.
	IntervalHours float64
	// WriteHours is the stall per checkpoint write (the job computes no
	// steps while persisting).
	WriteHours float64
	// RestoreHours is the stall to load the latest checkpoint on a fresh
	// instance before training resumes.
	RestoreHours float64
	// SizeBytes is the artifact size, for storage metering.
	SizeBytes float64
}

// OptimalCheckpointInterval is Young's approximation: the overhead-
// minimizing interval between checkpoints is sqrt(2·writeTime·MTBF).
// Zero or negative inputs return 0 (checkpointing disabled).
func OptimalCheckpointInterval(writeHours, mtbfHours float64) float64 {
	if writeHours <= 0 || mtbfHours <= 0 {
		return 0
	}
	return math.Sqrt(2 * writeHours * mtbfHours)
}

// PlanCheckpoints builds a policy for an artifact of sizeBytes written
// at writeBytesPerSec under a preemption MTBF of mtbfHours. The interval
// comes from Young's formula and is clamped to at least one write time;
// restore is modeled at the same bandwidth as the write.
func PlanCheckpoints(sizeBytes, writeBytesPerSec, mtbfHours float64) CheckpointPolicy {
	if sizeBytes <= 0 || writeBytesPerSec <= 0 {
		return CheckpointPolicy{}
	}
	w := sizeBytes / writeBytesPerSec / 3600
	interval := OptimalCheckpointInterval(w, mtbfHours)
	if interval < w {
		interval = w
	}
	return CheckpointPolicy{
		IntervalHours: interval,
		WriteHours:    w,
		RestoreHours:  w,
		SizeBytes:     sizeBytes,
	}
}

// Enabled reports whether the policy actually checkpoints.
func (p CheckpointPolicy) Enabled() bool { return p.IntervalHours > 0 && p.SizeBytes > 0 }
