package orchestrator

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cloud"
	"repro/internal/logging"
	"repro/internal/objectstore"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Training-controller errors.
var (
	ErrNoTargets = errors.New("orchestrator: train job needs at least one target")
	ErrJobExists = errors.New("orchestrator: train job already exists")
)

// TrainPhase is a training job's lifecycle state.
type TrainPhase int

const (
	TrainPending TrainPhase = iota
	TrainRunning
	TrainCheckpointing
	TrainMigrating
	TrainDone
)

func (p TrainPhase) String() string {
	switch p {
	case TrainPending:
		return "Pending"
	case TrainRunning:
		return "Running"
	case TrainCheckpointing:
		return "Checkpointing"
	case TrainMigrating:
		return "Migrating"
	case TrainDone:
		return "Done"
	default:
		return fmt.Sprintf("TrainPhase(%d)", int(p))
	}
}

// TrainTarget is one flavor the job can run on, with its measured step
// time there. Targets are preference-ordered; among spot pools the
// controller picks the cheapest with free capacity, and Targets[0] is
// the on-demand fallback when every pool is full.
type TrainTarget struct {
	Flavor    cloud.Flavor
	StepHours float64
}

// TrainJobSpec declares a long-running training job that must survive
// spot preemption: total steps, candidate placements, and the
// checkpoint policy (typically from PlanCheckpoints over
// train.CheckpointBytes).
type TrainJobSpec struct {
	Name       string
	Project    string
	Targets    []TrainTarget
	TotalSteps int
	Checkpoint CheckpointPolicy
	// Bucket receives checkpoint objects when an object store is
	// attached; sized writes meter real storage hours.
	Bucket string
}

// TrainJobStatus is a point-in-time job snapshot for CLIs and reports.
type TrainJobStatus struct {
	Name           string  `json:"name"`
	Phase          string  `json:"phase"`
	Instance       string  `json:"instance,omitempty"`
	Pool           string  `json:"pool,omitempty"` // spot pool, "" = on-demand
	DoneSteps      int     `json:"done_steps"`
	PersistedSteps int     `json:"persisted_steps"`
	TotalSteps     int     `json:"total_steps"`
	LostSteps      int     `json:"lost_steps"`
	LostStepHours  float64 `json:"lost_step_hours"`
	Preemptions    int     `json:"preemptions"`
	Migrations     int     `json:"migrations"`
	Checkpoints    int     `json:"checkpoints"`
	Retries        int     `json:"retries"`
	StartedAt      float64 `json:"started_at"`
	FinishedAt     float64 `json:"finished_at"` // -1 while running
}

type trainJob struct {
	spec   TrainJobSpec
	phase  TrainPhase
	instID string
	pool   string // spot pool name, "" when on-demand
	target TrainTarget

	doneSteps      int // computed steps (may exceed persisted until a write lands)
	persistedSteps int // steps durable in the latest checkpoint
	lostSteps      int
	lostStepHours  float64

	segStart float64
	segSteps int
	segEvent *simclock.Event

	preemptions int
	migrations  int
	checkpoints int
	retries     int

	noticedAt  float64 // preemption/crash instant feeding MTTR, -1 idle
	startedAt  float64
	finishedAt float64

	span    *trace.Span // whole-job trace
	migSpan *trace.Span // open migration span during a notice window
}

// TrainController runs checkpoint-and-migrate training jobs on spot
// capacity: it launches each job on the cheapest pool with room,
// checkpoints on the Young-formula interval, and on a preemption notice
// drains the in-flight steps, writes a final checkpoint if the notice
// window allows, vacates the instance before the reclaim deadline, and
// relaunches on the cheapest surviving pool (or on-demand) to resume
// from the last persisted step. Work since the last durable checkpoint
// is the only work a preemption can destroy, so lost step-hours are
// bounded by the checkpoint interval per preemption.
type TrainController struct {
	mu     sync.Mutex
	clk    *simclock.Clock
	cl     *cloud.Cloud
	store  *objectstore.Service
	tel    *telemetry.Bus
	tracer *trace.Tracer
	log    *logging.Component // "train" stream; nil no-ops

	jobs   map[string]*trainJob
	byInst map[string]*trainJob
}

// retryHours is the backoff before re-trying a failed relaunch.
const retryHours = 0.1

// NewTrainController attaches a controller to the cloud. If the site's
// spot market is enabled, the controller subscribes to preemption
// notices; enable the market before constructing the controller.
func NewTrainController(clk *simclock.Clock, cl *cloud.Cloud) *TrainController {
	tc := &TrainController{
		clk:    clk,
		cl:     cl,
		jobs:   map[string]*trainJob{},
		byInst: map[string]*trainJob{},
	}
	if m := cl.Spot(); m != nil {
		m.OnNotice(tc.onNotice)
	}
	return tc
}

// SetObjectStore attaches the store receiving checkpoint objects.
func (tc *TrainController) SetObjectStore(s *objectstore.Service) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.store = s
}

// SetTelemetry attaches a telemetry bus.
func (tc *TrainController) SetTelemetry(b *telemetry.Bus) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.tel = b
}

// SetLogging attaches the structured logger; the training lifecycle
// (submit, launch, preemption notices, lost work, migrations, done)
// leaves "train" log lines.
func (tc *TrainController) SetLogging(lg *logging.Logger) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.log = lg.Component("train")
}

// SetTracer attaches a tracer; each job gets a trace with segment,
// checkpoint, and migrate (drain/checkpoint/relaunch/restore) spans.
func (tc *TrainController) SetTracer(t *trace.Tracer) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.tracer = t
}

// Submit registers a job and launches it immediately.
func (tc *TrainController) Submit(spec TrainJobSpec) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if len(spec.Targets) == 0 {
		return fmt.Errorf("%w: %q", ErrNoTargets, spec.Name)
	}
	if _, ok := tc.jobs[spec.Name]; ok {
		return fmt.Errorf("%w: %q", ErrJobExists, spec.Name)
	}
	now := tc.clk.Now()
	j := &trainJob{spec: spec, startedAt: now, finishedAt: -1, noticedAt: -1}
	if tc.tracer != nil {
		j.span = tc.tracer.StartTrace("train "+spec.Name,
			telemetry.String("project", spec.Project),
			telemetry.Int("total_steps", spec.TotalSteps))
	}
	tc.jobs[spec.Name] = j
	tc.tel.Counter("orchestrator.train_jobs").Inc()
	tc.log.InfoT(j.span, "train job submitted",
		logging.Str("job", spec.Name),
		logging.Int("total_steps", spec.TotalSteps))
	tc.launchLocked(j)
	return nil
}

// pickTargetLocked chooses the placement for job j: the spot pool with
// the lowest cost per step (current price × step time) among the job's
// targets with a free slot — a cheap-but-slow flavor only wins when it
// is cheaper per unit of progress, not merely per hour. Targets are
// scanned in preference order so ties resolve deterministically.
// Returns ok=false when no pool has room — the caller falls back to
// on-demand.
func (tc *TrainController) pickTargetLocked(j *trainJob) (TrainTarget, bool) {
	m := tc.cl.Spot()
	if m == nil {
		return TrainTarget{}, false
	}
	now := tc.clk.Now()
	var best TrainTarget
	bestCost := math.Inf(1)
	found := false
	for _, t := range j.spec.Targets {
		free, ok := m.FreeCapacity(t.Flavor.Name)
		if !ok || free == 0 {
			continue
		}
		price, _ := m.PriceAt(t.Flavor.Name, now)
		perStep := price * t.StepHours
		if perStep < bestCost {
			best, bestCost, found = t, perStep, true
		}
	}
	return best, found
}

// launchLocked places job j on spot (cheapest pool with room) or
// on-demand (first target) and schedules the restore stall + first
// segment. Launch failures schedule a retry.
func (tc *TrainController) launchLocked(j *trainJob) {
	now := tc.clk.Now()
	target, spot := tc.pickTargetLocked(j)
	if !spot {
		target = j.spec.Targets[0]
	}
	name := fmt.Sprintf("%s-%d", j.spec.Name, j.migrations+j.retries)
	inst, err := tc.cl.Launch(cloud.LaunchSpec{
		Project: j.spec.Project,
		Name:    name,
		Flavor:  target.Flavor,
		Spot:    spot,
	})
	if err != nil {
		j.retries++
		tc.tel.Counter("orchestrator.spot_relaunch_retries").Inc()
		tc.log.WarnT(j.span, "relaunch failed, backing off",
			logging.Str("job", j.spec.Name),
			logging.Str("error", err.Error()))
		jn := j.spec.Name
		tc.clk.After(retryHours, "orchestrator.train_retry "+jn, func() {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			tc.launchLocked(tc.jobs[jn])
		})
		return
	}
	j.instID = inst.ID
	j.target = target
	j.pool = ""
	if spot {
		j.pool = target.Flavor.Name
	}
	tc.byInst[inst.ID] = j
	tc.log.InfoT(j.span, "train job launched",
		logging.Str("job", j.spec.Name),
		logging.Str("instance", inst.ID),
		logging.Str("flavor", target.Flavor.Name),
		logging.Str("pricing", pricingOf(spot)))

	// Restoring a checkpoint stalls the job before it can step again;
	// a fresh job (nothing persisted) starts immediately.
	stall := 0.0
	if j.spec.Checkpoint.Enabled() && j.persistedSteps > 0 {
		stall = j.spec.Checkpoint.RestoreHours
	}
	if restore := j.migSpan; restore != nil {
		sp := restore.StartChildAt("restore", now)
		sp.FinishAt(now + stall)
	}
	jn := j.spec.Name
	if stall == 0 {
		tc.resumeLocked(j)
		return
	}
	tc.clk.After(stall, "orchestrator.train_restore "+jn, func() {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		tc.resumeLocked(tc.jobs[jn])
	})
}

func pricingOf(spot bool) string {
	if spot {
		return "spot"
	}
	return "on-demand"
}

// resumeLocked marks the job running again and starts the next segment.
// The gap since the preemption (or crash) instant is one MTTR sample.
func (tc *TrainController) resumeLocked(j *trainJob) {
	now := tc.clk.Now()
	if j.noticedAt >= 0 {
		mttr := now - j.noticedAt
		tc.tel.Histogram("orchestrator.spot_mttr_hours",
			telemetry.ExpBuckets(1.0/60, 2, 12)).Observe(mttr)
		j.noticedAt = -1
	}
	if sp := j.migSpan; sp != nil {
		sp.Annotate(telemetry.Int("resume_step", j.persistedSteps))
		sp.FinishAt(now)
		j.migSpan = nil
	}
	tc.startSegmentLocked(j)
}

// stepsPerSegment returns how many steps run between checkpoint writes
// on the current target: the checkpoint interval divided by step time,
// at least one. Without a checkpoint policy the whole job is one
// segment.
func (j *trainJob) stepsPerSegment() int {
	remaining := j.spec.TotalSteps - j.doneSteps
	if !j.spec.Checkpoint.Enabled() || j.target.StepHours <= 0 {
		return remaining
	}
	per := int(j.spec.Checkpoint.IntervalHours / j.target.StepHours)
	if per < 1 {
		per = 1
	}
	if per > remaining {
		per = remaining
	}
	return per
}

// startSegmentLocked schedules the end of the next run of steps.
func (tc *TrainController) startSegmentLocked(j *trainJob) {
	if j.doneSteps >= j.spec.TotalSteps {
		tc.finishLocked(j)
		return
	}
	now := tc.clk.Now()
	j.phase = TrainRunning
	j.segStart = now
	j.segSteps = j.stepsPerSegment()
	jn := j.spec.Name
	j.segEvent = tc.clk.After(float64(j.segSteps)*j.target.StepHours,
		"orchestrator.train_segment "+jn, func() {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			tc.segmentEndLocked(tc.jobs[jn])
		})
}

// segmentEndLocked credits the segment's steps and starts the
// checkpoint write. If the instance died mid-segment without a notice
// (host crash), the segment's compute is lost and the job migrates.
func (tc *TrainController) segmentEndLocked(j *trainJob) {
	now := tc.clk.Now()
	j.segEvent = nil
	inst, err := tc.cl.Get(j.instID)
	if err != nil || !inst.Running() {
		failedAt := now
		if err == nil && inst.FailedAt >= 0 {
			failedAt = inst.FailedAt
		}
		lostSteps := int((failedAt - j.segStart) / j.target.StepHours)
		tc.loseWorkLocked(j, lostSteps, failedAt-j.segStart, "crash")
		j.noticedAt = failedAt
		tc.migrateLocked(j, "crash")
		return
	}
	j.doneSteps += j.segSteps
	tc.checkpointLocked(j)
}

// checkpointLocked persists everything computed so far: a WriteHours
// stall, then the object lands and the steps become durable.
func (tc *TrainController) checkpointLocked(j *trainJob) {
	if !j.spec.Checkpoint.Enabled() {
		tc.keepStepsLocked(j, j.doneSteps-j.persistedSteps)
		j.persistedSteps = j.doneSteps
		tc.startSegmentLocked(j)
		return
	}
	now := tc.clk.Now()
	j.phase = TrainCheckpointing
	var sp *trace.Span
	if j.span != nil {
		sp = j.span.StartChildAt("checkpoint", now,
			telemetry.Int("step", j.doneSteps))
	}
	jn := j.spec.Name
	tc.clk.After(j.spec.Checkpoint.WriteHours, "orchestrator.train_ckpt "+jn, func() {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		jj := tc.jobs[jn]
		tc.persistLocked(jj)
		sp.FinishAt(tc.clk.Now())
		tc.startSegmentLocked(jj)
	})
}

// persistLocked records a durable checkpoint at the current step count
// and writes the sized object through the store.
func (tc *TrainController) persistLocked(j *trainJob) {
	tc.keepStepsLocked(j, j.doneSteps-j.persistedSteps)
	j.persistedSteps = j.doneSteps
	j.checkpoints++
	tc.tel.Counter("orchestrator.train_checkpoints").Inc()
	if tc.store != nil && j.spec.Bucket != "" {
		key := fmt.Sprintf("%s/step-%06d.ckpt", j.spec.Name, j.persistedSteps)
		if _, err := tc.store.PutSized(j.spec.Bucket, key, int64(j.spec.Checkpoint.SizeBytes)); err != nil {
			tc.tel.Counter("orchestrator.train_checkpoint_errors").Inc()
		}
	}
}

// keepStepsLocked counts newly durable steps toward the kept/lost SLO.
func (tc *TrainController) keepStepsLocked(j *trainJob, steps int) {
	if steps <= 0 {
		return
	}
	// Only labeled series: selectors like `orchestrator.train_steps` sum
	// every matching series, so an unlabeled twin would double-count.
	tc.tel.Counter(telemetry.Labeled("orchestrator.train_steps",
		telemetry.String("outcome", "kept"))).Add(int64(steps))
}

// loseWorkLocked accounts compute destroyed by a preemption or crash:
// steps that never reached a checkpoint, plus the partial step in
// flight. The job rewinds to its last persisted step.
func (tc *TrainController) loseWorkLocked(j *trainJob, steps int, hours float64, cause string) {
	if steps < 0 {
		steps = 0
	}
	if hours < 0 {
		hours = 0
	}
	j.lostSteps += steps
	j.lostStepHours += hours
	j.doneSteps = j.persistedSteps
	if steps > 0 {
		tc.tel.Counter(telemetry.Labeled("orchestrator.train_steps",
			telemetry.String("outcome", "lost"))).Add(int64(steps))
	}
	tc.tel.Gauge("orchestrator.train_lost_step_hours").Add(hours)
	tc.log.WarnT(j.span, "training work lost",
		logging.Str("job", j.spec.Name),
		logging.Str("cause", cause),
		logging.Int("steps", steps),
		logging.Float("hours", hours))
}

// onNotice reacts to a spot preemption notice for one of our
// instances: cancel the running segment, credit the steps already
// computed (drain), and either write a final checkpoint inside the
// notice window and vacate cleanly, or — when the window is too short
// for a write — abandon the unpersisted work and vacate immediately.
// Either way the instance is deleted before the reclaim deadline, so
// the market records a vacate, not a reclaim.
func (tc *TrainController) onNotice(n cloud.SpotNotice) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	j, ok := tc.byInst[n.InstanceID]
	if !ok || j.phase == TrainDone {
		return
	}
	now := tc.clk.Now()
	j.preemptions++
	j.noticedAt = n.NoticedAt
	tc.tel.Counter("orchestrator.train_preemptions").Inc()
	tc.log.WarnT(j.span, "preemption notice received",
		logging.Str("job", j.spec.Name),
		logging.Str("pool", n.Pool),
		logging.Float("reclaim_at", n.ReclaimAt))
	if j.span != nil {
		j.migSpan = j.span.StartChildAt("migrate", now,
			telemetry.String("pool", n.Pool),
			telemetry.Float("notice_hours", n.ReclaimAt-n.NoticedAt))
	}

	// Drain: steps finished inside the interrupted segment count as
	// computed; the partial step in flight is always abandoned.
	drained, partialHours := 0, 0.0
	if j.phase == TrainRunning && j.segEvent != nil {
		tc.clk.Cancel(j.segEvent)
		j.segEvent = nil
		elapsed := now - j.segStart
		drained = int(elapsed/j.target.StepHours + 1e-9)
		if drained > j.segSteps {
			drained = j.segSteps
		}
		j.doneSteps += drained
		partialHours = elapsed - float64(drained)*j.target.StepHours
		if partialHours < 0 {
			partialHours = 0
		}
	}
	if sp := j.migSpan; sp != nil {
		drainSp := sp.StartChildAt("drain", now, telemetry.Int("steps", drained))
		drainSp.FinishAt(now)
	}

	window := n.ReclaimAt - now
	jn := j.spec.Name
	if j.spec.Checkpoint.Enabled() && j.spec.Checkpoint.WriteHours <= window {
		// The window fits a final checkpoint: everything drained
		// survives; only the partial step in flight is lost. No rewind —
		// the drained steps are about to be persisted.
		j.phase = TrainMigrating
		if partialHours > 0 {
			j.lostStepHours += partialHours
			tc.tel.Gauge("orchestrator.train_lost_step_hours").Add(partialHours)
		}
		var sp *trace.Span
		if j.migSpan != nil {
			sp = j.migSpan.StartChildAt("checkpoint", now,
				telemetry.Int("step", j.doneSteps))
		}
		tc.clk.After(j.spec.Checkpoint.WriteHours, "orchestrator.train_final_ckpt "+jn, func() {
			tc.mu.Lock()
			defer tc.mu.Unlock()
			jj := tc.jobs[jn]
			tc.persistLocked(jj)
			sp.FinishAt(tc.clk.Now())
			tc.migrateLocked(jj, "preempt")
		})
		return
	}
	// No time to save: everything since the last durable checkpoint is
	// gone, bounded by one checkpoint interval.
	lost := j.doneSteps - j.persistedSteps
	tc.loseWorkLocked(j, lost, float64(lost)*j.target.StepHours+partialHours, "preempt")
	tc.migrateLocked(j, "preempt")
}

// migrateLocked vacates the current instance (if any) and relaunches
// the job on the best surviving placement.
func (tc *TrainController) migrateLocked(j *trainJob, cause string) {
	now := tc.clk.Now()
	if j.instID != "" {
		delete(tc.byInst, j.instID)
		if inst, err := tc.cl.Get(j.instID); err == nil && inst.Running() {
			_ = tc.cl.Delete(j.instID)
		}
		j.instID = ""
	}
	j.phase = TrainMigrating
	j.migrations++
	tc.tel.Counter("orchestrator.train_migrations").Inc()
	tc.log.InfoT(j.span, "migrating train job",
		logging.Str("job", j.spec.Name),
		logging.Str("cause", cause),
		logging.Int("from_step", j.persistedSteps))
	if sp := j.migSpan; sp != nil {
		relSp := sp.StartChildAt("relaunch", now)
		relSp.FinishAt(now)
	}
	tc.launchLocked(j)
}

// finishLocked completes a job: the instance is released and the trace
// closed.
func (tc *TrainController) finishLocked(j *trainJob) {
	now := tc.clk.Now()
	j.phase = TrainDone
	j.finishedAt = now
	if j.instID != "" {
		delete(tc.byInst, j.instID)
		if inst, err := tc.cl.Get(j.instID); err == nil && inst.Running() {
			_ = tc.cl.Delete(j.instID)
		}
		j.instID = ""
	}
	tc.tel.Counter("orchestrator.train_jobs_done").Inc()
	tc.log.InfoT(j.span, "train job done",
		logging.Str("job", j.spec.Name),
		logging.Int("steps", j.persistedSteps),
		logging.Int("lost_steps", j.lostSteps),
		logging.Int("preemptions", j.preemptions))
	if j.span != nil {
		j.span.Annotate(
			telemetry.Int("preemptions", j.preemptions),
			telemetry.Int("migrations", j.migrations),
			telemetry.Float("lost_step_hours", j.lostStepHours))
		j.span.FinishAt(now)
	}
}

// Jobs returns job snapshots sorted by name.
func (tc *TrainController) Jobs() []TrainJobStatus {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	names := make([]string, 0, len(tc.jobs))
	for n := range tc.jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TrainJobStatus, 0, len(names))
	for _, n := range names {
		j := tc.jobs[n]
		out = append(out, TrainJobStatus{
			Name:           j.spec.Name,
			Phase:          j.phase.String(),
			Instance:       j.instID,
			Pool:           j.pool,
			DoneSteps:      j.doneSteps,
			PersistedSteps: j.persistedSteps,
			TotalSteps:     j.spec.TotalSteps,
			LostSteps:      j.lostSteps,
			LostStepHours:  j.lostStepHours,
			Preemptions:    j.preemptions,
			Migrations:     j.migrations,
			Checkpoints:    j.checkpoints,
			Retries:        j.retries,
			StartedAt:      j.startedAt,
			FinishedAt:     j.finishedAt,
		})
	}
	return out
}

// AllDone reports whether every submitted job completed.
func (tc *TrainController) AllDone() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	for _, j := range tc.jobs {
		if j.phase != TrainDone {
			return false
		}
	}
	return true
}
