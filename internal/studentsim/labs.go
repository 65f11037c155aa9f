package studentsim

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/cloud"
	"repro/internal/course"
	"repro/internal/lease"
	"repro/internal/simclock"
	"repro/internal/stats"
)

// Config parameterizes a lab-phase simulation.
type Config struct {
	Students int
	Seed     uint64
	// SemesterWeeks bounds instance lifetimes (teardown); the course ran
	// 14 weeks plus finals — 15 by default.
	SemesterWeeks int
	// Behavior overrides the calibrated student-behavior constants for
	// what-if analysis; nil uses the paper-calibrated defaults.
	Behavior *Behavior
}

// Behavior exposes the student-behavior knobs the calibration froze, so
// what-if experiments (e.g. "what if 80% of students deleted instances
// promptly?") can quantify policy interventions. Zero fields fall back
// to the calibrated defaults.
type Behavior struct {
	// PromptDeleteFrac is the fraction of students who tear down VM labs
	// promptly (default 0.45).
	PromptDeleteFrac float64
	// NegligenceSigma shapes the shared per-student persistence tail
	// (default 1.45).
	NegligenceSigma float64
	// OverhangScale multiplies every persistence overhang (0 means the
	// default of 1); set DisableOverhang to model perfect
	// auto-termination at working time.
	OverhangScale   float64
	DisableOverhang bool
}

// effective returns the behavior with defaults filled in.
func (b *Behavior) effective() Behavior {
	out := Behavior{PromptDeleteFrac: promptDeleteFrac,
		NegligenceSigma: negligenceSigma, OverhangScale: 1}
	if b == nil {
		return out
	}
	if b.PromptDeleteFrac > 0 {
		out.PromptDeleteFrac = b.PromptDeleteFrac
	}
	if b.NegligenceSigma > 0 {
		out.NegligenceSigma = b.NegligenceSigma
	}
	if b.OverhangScale > 0 {
		out.OverhangScale = b.OverhangScale
	}
	if b.DisableOverhang {
		out.OverhangScale = 0
	}
	return out
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Students == 0 {
		c.Students = course.Enrollment
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SemesterWeeks == 0 {
		c.SemesterWeeks = 15
	}
	return c
}

// StudentUsage is one student's metered consumption per Table-1 row.
type StudentUsage struct {
	ID        string
	InstHours map[string]float64
	FIPHours  map[string]float64
}

// sumSorted adds map values in key order for bit-for-bit reproducibility.
func sumSorted(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += m[k]
	}
	return t
}

// Result is a finished lab-phase simulation. Its hours are the platform
// meter's (DESIGN §4).
type Result struct {
	Config   Config
	Students []StudentUsage
	// RowInstanceHours and RowFIPHours aggregate per Table-1 row.
	RowInstanceHours map[string]float64
	RowFIPHours      map[string]float64
	// ClippedOverhangHours records, per row, overhang mass (in instance
	// hours) that could not be redistributed because every non-prompt
	// student hit maxOverhangHours, so extreme what-if configs report the
	// mass the cap left unplaced instead of silently dropping it.
	ClippedOverhangHours map[string]float64
	// Cloud and Lease expose the substrate for meter cross-checks.
	Cloud *cloud.Cloud
	Lease *lease.Service
	Clock *simclock.Clock
}

// TotalInstanceHours sums all rows (the paper's 109,837).
func (r *Result) TotalInstanceHours() float64 {
	return sumSorted(r.RowInstanceHours)
}

// TotalFIPHours sums all rows (the paper's 53,387).
func (r *Result) TotalFIPHours() float64 {
	return sumSorted(r.RowFIPHours)
}

// SimulateLabs runs the full guided-lab phase for cfg.Students students
// on a fresh IaaS substrate and returns per-student, per-row usage.
func SimulateLabs(cfg Config) (*Result, error) {
	if cfg.Students < 0 {
		return nil, fmt.Errorf("studentsim: negative Students %d", cfg.Students)
	}
	cfg = cfg.withDefaults()
	n := cfg.Students
	rng := stats.NewRNG(cfg.Seed)
	clk := simclock.New()
	cl := cloud.New("kvm@sim", clk)
	cl.AddVMCapacity(80, 48, 192)
	cl.CreateProject("course", cloud.CourseQuota())
	// Bare-metal/edge reservations live at separate Chameleon sites with
	// their own (default, sufficient) quotas — model as a second project
	// with no limits so the KVM quota only governs on-demand VMs.
	cl.CreateProject("course-chi", cloud.Quota{
		Instances: cloud.Unlimited, Cores: cloud.Unlimited, RAMGB: cloud.Unlimited,
		Networks: cloud.Unlimited, Routers: cloud.Unlimited, FloatingIPs: cloud.Unlimited,
		SecurityGroups: cloud.Unlimited, Volumes: cloud.Unlimited, BlockStorageGB: cloud.Unlimited,
	})
	ls := lease.New(clk, cl)

	res := &Result{
		Config:               cfg,
		RowInstanceHours:     map[string]float64{},
		RowFIPHours:          map[string]float64{},
		ClippedOverhangHours: map[string]float64{},
		Cloud:                cl,
		Lease:                ls,
		Clock:                clk,
	}
	res.Students = make([]StudentUsage, n)
	for i := range res.Students {
		res.Students[i] = StudentUsage{
			ID:        fmt.Sprintf("s%03d", i),
			InstHours: map[string]float64{},
			FIPHours:  map[string]float64{},
		}
	}
	teardown := float64(cfg.SemesterWeeks) * course.HoursPerWeek

	behavior := cfg.Behavior.effective()
	// Shared per-student negligence factor: the long tail of Fig. 2.
	negligence := stratifiedLogNormal(n, 1, behavior.NegligenceSigma, rng.Split(1))

	rows := course.Rows()
	// Reservation pools sized to the peak weekly demand plus slack. A
	// node type can serve several course weeks (compute_gigaio appears in
	// units 4, 5, and 6), so pools are created once per flavor with one
	// staff hold per week it is used.
	poolNodes := map[string]int{}
	for _, row := range rows {
		if !row.Reserved() {
			continue
		}
		demand := row.TargetHours * float64(n)
		nodes := lease.PlanNodes(demand) + 1
		if row.Flavor.Name == "raspberrypi5" && nodes < 7 {
			nodes = 7 // the paper's seven Raspberry Pi 5 devices
		}
		if nodes > poolNodes[row.Flavor.Name] {
			poolNodes[row.Flavor.Name] = nodes
		}
	}
	added := map[string]bool{}
	for _, row := range rows {
		if !row.Reserved() {
			continue
		}
		if !added[row.Flavor.Name] {
			ls.AddPool(row.Flavor, poolNodes[row.Flavor.Name])
			added[row.Flavor.Name] = true
		}
		ws := float64(row.Week-1) * course.HoursPerWeek
		if err := ls.AddStaffHold(row.Flavor.Name, ws, ws+course.HoursPerWeek); err != nil {
			return nil, err
		}
	}

	// Group reserved rows by assignment so students split across node
	// types according to each row's Share.
	byAssignment := map[string][]course.Row{}
	var order []string
	for _, row := range rows {
		if row.Reserved() {
			if _, ok := byAssignment[row.Assignment]; !ok {
				order = append(order, row.Assignment)
			}
			byAssignment[row.Assignment] = append(byAssignment[row.Assignment], row)
		}
	}

	label := uint64(100)
	for _, row := range rows {
		if row.Reserved() {
			continue
		}
		label++
		if err := simulateVMRow(res, cl, clk, row, negligence, behavior, teardown, rng.Split(label)); err != nil {
			return nil, err
		}
	}
	for _, a := range order {
		label++
		if err := simulateReservedAssignment(res, cl, ls, byAssignment[a], rng.Split(label)); err != nil {
			return nil, err
		}
	}
	clk.RunUntil(teardown + 1)
	res.book(rows)
	return res, nil
}

// book fills the per-student and per-row hours from the platform's meter,
// the lab phase's one book. A student-row adds its records in metering
// order; a row total adds its students in student order, so no total
// depends on the order the platform metered in.
func (r *Result) book(rows []course.Row) {
	index := make(map[string]int, len(r.Students))
	for i, s := range r.Students {
		index[s.ID] = i
	}
	now := r.Clock.Now()
	r.Cloud.Meter().Each(func(rec *cloud.UsageRecord) {
		i, ok := index[rec.Tags.Get("student")]
		if !ok {
			return
		}
		switch rec.Kind {
		case cloud.UsageInstance:
			r.Students[i].InstHours[rec.Tags.Get("lab")] += rec.Hours(now)
		case cloud.UsageFloatingIP:
			r.Students[i].FIPHours[rec.Tags.Get("lab")] += rec.Hours(now)
		}
	})
	for _, row := range rows {
		for _, s := range r.Students {
			r.RowInstanceHours[row.ID] += s.InstHours[row.ID]
			r.RowFIPHours[row.ID] += s.FIPHours[row.ID]
		}
	}
}

// simulateVMRow schedules one on-demand lab for every student: launch
// VMsPerStudent instances plus one floating IP, hold them for working
// time plus a heavy-tailed persistence overhang, then delete.
func simulateVMRow(res *Result, cl *cloud.Cloud, clk *simclock.Clock,
	row course.Row, negligence []float64, behavior Behavior, teardown float64, rng *stats.RNG) error {

	n := len(res.Students)
	prompt := stratifiedBools(n, behavior.PromptDeleteFrac, rng.Split(1))
	noise := stratifiedLogNormal(n, 1, rowNoiseSigma, rng.Split(2))

	// Working time: expected duration times a triangular effort factor.
	effort := make([]float64, n)
	var effortSum float64
	erng := rng.Split(3)
	for i := range effort {
		effort[i] = erng.Triangular(effortLo, effortMode, effortHi)
		effortSum += effort[i]
	}
	meanEffort := effortSum / float64(n)

	// Overhang budget: whatever Table 1's target leaves after working
	// time, spread over non-prompt students in proportion to
	// negligence × row noise, normalized so the row total is exact. The
	// cap at maxOverhangHours redistributes clipped mass to the
	// remaining students (waterfilling) so the row total survives.
	// The calibrated world keeps (1 − promptDeleteFrac) of students
	// leaving overhangs; what-if overrides scale the mass by how the
	// kept fraction (and any explicit scale) changes relative to that
	// calibration, so PromptDeleteFrac behaves like the policy lever it
	// is instead of redistributing a pinned total.
	targetDeploy := row.TargetHours / float64(row.VMsPerStudent)
	keptScale := (1 - behavior.PromptDeleteFrac) / (1 - promptDeleteFrac)
	overhangMass := (targetDeploy - meanEffort*row.ExpectedHours) * float64(n) *
		keptScale * behavior.OverhangScale
	if overhangMass < 0 {
		overhangMass = 0
	}
	overhangs := make([]float64, n)
	capped := make([]bool, n)
	remaining := overhangMass
	for iter := 0; iter < 8 && remaining > 1e-9; iter++ {
		var weightSum float64
		for i := range overhangs {
			if !prompt[i] && !capped[i] {
				weightSum += negligence[i] * noise[i]
			}
		}
		if weightSum <= 0 {
			break
		}
		distributed := 0.0
		for i := range overhangs {
			if prompt[i] || capped[i] {
				continue
			}
			add := remaining * negligence[i] * noise[i] / weightSum
			if overhangs[i]+add >= maxOverhangHours {
				add = maxOverhangHours - overhangs[i]
				capped[i] = true
			}
			overhangs[i] += add
			distributed += add
		}
		remaining -= distributed
		if distributed <= 1e-9 {
			break
		}
	}
	if remaining > 1e-9 {
		// Every non-prompt student is pinned at maxOverhangHours (or the
		// iteration budget ran out): the cap makes the remaining mass
		// physically unplaceable, so report it instead of dropping it.
		res.ClippedOverhangHours[row.ID] += remaining * float64(row.VMsPerStudent)
	}

	ws := float64(row.Week-1) * course.HoursPerWeek
	srng := rng.Split(4)
	for i := range res.Students {
		start := ws + srng.Uniform(2, 120)
		working := effort[i] * row.ExpectedHours
		end := start + working + overhangs[i]
		if end > teardown {
			end = teardown
		}

		// Drive the substrate: launch at start, auto-delete at end.
		sid := res.Students[i].ID
		clk.At(start, "lab.start", func() {
			// One value for the deployment: its VMs, their meter records
			// and its floating IP share it.
			tags := cloud.NewTags("lab", row.ID, "student", sid)
			// The floating IP comes up only once there is an instance to
			// associate it with. When every launch is quota-blocked into
			// retryLaunch, the first successful retry allocates it; an
			// unconditional allocation here used to bill FIP-hours until
			// end for an IP associated with nothing.
			fipUp := false
			ensureFIP := func(instID string) {
				if fipUp {
					return
				}
				fipUp = true
				if fip, err := cl.AllocateFloatingIPFor("course", instID, tags); err == nil {
					clk.At(end, "lab.fip-release", func() {
						_ = cl.ReleaseFloatingIP(fip.ID)
					})
				}
			}
			var ids []string
			for v := 0; v < row.VMsPerStudent; v++ {
				inst, err := cl.Launch(cloud.LaunchSpec{
					Project: "course",
					Name:    nodeName(sid, row.ID, v),
					Flavor:  row.Flavor,
					Tags:    tags,
				})
				if err != nil {
					// Quota pressure: the student tries again later and
					// bills only what the meter records (DESIGN §4).
					retryLaunch(cl, clk, row, sid, tags, v, end, 12, ensureFIP)
					continue
				}
				ids = append(ids, inst.ID)
				cl.DeleteAt(inst.ID, end)
			}
			if len(ids) > 0 {
				ensureFIP(ids[0])
			}
		})
	}
	return nil
}

// nodeName names a lab VM: the bytes of
// fmt.Sprintf("%s_%s_node%d", sid, rowID, v).
func nodeName(sid, rowID string, v int) string {
	return sid + "_" + rowID + "_node" + strconv.Itoa(v)
}

// retryLaunch re-attempts a quota-blocked launch every 6 hours until the
// deployment window has passed. The retried VM carries its deployment's
// tags. onUp runs after a successful launch so the caller can bring up
// resources (the floating IP) that must not be metered while no instance
// exists.
func retryLaunch(cl *cloud.Cloud, clk *simclock.Clock, row course.Row, sid string, tags cloud.Tags, v int, end float64, retries int, onUp func(instID string)) {
	if retries <= 0 || clk.Now()+6 >= end {
		return
	}
	clk.After(6, "lab.retry", func() {
		inst, err := cl.Launch(cloud.LaunchSpec{
			Project: "course",
			Name:    nodeName(sid, row.ID, v),
			Flavor:  row.Flavor,
			Tags:    tags,
		})
		if err != nil {
			retryLaunch(cl, clk, row, sid, tags, v, end, retries-1, onUp)
			return
		}
		cl.DeleteAt(inst.ID, end)
		if onUp != nil {
			onUp(inst.ID)
		}
	})
}

// simulateReservedAssignment books auto-terminating slots for one lab
// assignment whose rows are its node-type alternatives.
func simulateReservedAssignment(res *Result, cl *cloud.Cloud, ls *lease.Service,
	rows []course.Row, rng *stats.RNG) error {

	n := len(res.Students)
	// Split students across node types by Share.
	assignment := make([]int, n) // index into rows
	if len(rows) > 1 {
		// Round each share to a head count, clamping so the running total
		// never exceeds n: at small n the rounded shares can sum past n
		// (e.g. 0.34/0.33/0.33 at n=3 rounds to 2/1/…), which used to
		// drive the last row's count negative and silently dump the
		// shortfall onto row 0. The clamp redistributes by truncating the
		// over-rounded middle rows; the last row absorbs the remainder,
		// which is non-negative by construction.
		counts := make([]int, len(rows))
		remaining := n
		for ri := range rows[:len(rows)-1] {
			counts[ri] = int(rows[ri].Share*float64(n) + 0.5)
			if counts[ri] > remaining {
				counts[ri] = remaining
			}
			remaining -= counts[ri]
		}
		counts[len(rows)-1] = remaining
		idx := 0
		for ri, c := range counts {
			for k := 0; k < c; k++ {
				assignment[idx] = ri
				idx++
			}
		}
		rng.Shuffle(n, func(i, j int) { assignment[i], assignment[j] = assignment[j], assignment[i] })
	}

	// Per row: attendance probability and slots per attendee solved from
	// the Table-1 target.
	for ri, row := range rows {
		var members []int
		for i, a := range assignment {
			if a == ri {
				members = append(members, i)
			}
		}
		if len(members) == 0 {
			continue
		}
		share := row.Share
		if share <= 0 {
			share = 1
		}
		// Mean slots per assigned student required by the target.
		muTotal := row.TargetHours / (share * row.SlotHours)
		attendFrac := 1 - gpuSkipFrac
		if muTotal < attendFrac {
			attendFrac = muTotal
		}
		muSlots := muTotal / attendFrac

		attends := stratifiedBools(len(members), attendFrac, rng.Split(uint64(ri)*10+1))
		slotCounts := stratifiedCounts(len(members), muSlots, rng.Split(uint64(ri)*10+2))

		ws := float64(row.Week-1) * course.HoursPerWeek
		brng := rng.Split(uint64(ri)*10 + 3)
		for mi, si := range members {
			if !attends[mi] {
				continue
			}
			slots := slotCounts[mi]
			if slots < 1 {
				slots = 1
			}
			student := &res.Students[si]
			// Every slot's reservation and floating-IP record share one
			// value.
			tags := cloud.NewTags("lab", row.ID, "student", student.ID)
			earliest := ws + brng.Uniform(0, 100)
			for k := 0; k < slots; k++ {
				r, err := ls.BookEarliest(lease.Spec{
					Project:  "course-chi",
					User:     student.ID,
					NodeType: row.Flavor.Name,
					Start:    earliest,
					Tags:     tags,
				}, row.SlotHours, ws+course.HoursPerWeek)
				if errors.Is(err, lease.ErrNoNodeFree) {
					break // pool saturated this week; the student gives up
				}
				if err != nil {
					return err
				}
				// A floating IP accompanies the reservation window.
				cl.Meter().Open(cloud.UsageFloatingIP, "course-chi", "", tags, 1, r.Start).End = r.End
				earliest = r.End + brng.Uniform(2, 20)
			}
		}
	}
	return nil
}
