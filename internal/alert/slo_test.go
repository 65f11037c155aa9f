package alert

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/tsdb"
)

// appendCounters writes cumulative ok/err counters every 0.25h up to
// hours, erring at the given per-step rate from errFrom onward.
func appendCounters(db *tsdb.DB, hours, errFrom float64, okStep, errStep float64) {
	okL := tsdb.NewLabels(tsdb.L("outcome", "ok"))
	errL := tsdb.NewLabels(tsdb.L("outcome", "err"))
	var okC, errC float64
	for t := 0.25; t <= hours+1e-9; t += 0.25 {
		okC += okStep
		if t >= errFrom {
			errC += errStep
		}
		db.AppendRef(db.Ref("req", okL), t, okC)
		db.AppendRef(db.Ref("req", errL), t, errC)
	}
}

func TestSLOStatusReconcilesWithCounters(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	appendCounters(db, 4, 2, 10, 2) // 16 steps of +10 ok; 9 steps of +2 err
	s := SLO{Name: "avail", Objective: 0.95,
		Good:   `req{outcome="ok"}`,
		Total:  "req",
		Window: 6, // covers the whole run
	}
	st := s.Status(db, 4)
	wantGood, wantTotal := 160.0, 178.0
	if st.Good != wantGood || st.Total != wantTotal {
		t.Fatalf("good/total = %v/%v, want %v/%v (must reconcile with raw counter totals)",
			st.Good, st.Total, wantGood, wantTotal)
	}
	wantRatio := 1 - wantGood/wantTotal
	if math.Abs(st.ErrorRatio-wantRatio) > 1e-12 {
		t.Errorf("error ratio = %v, want %v", st.ErrorRatio, wantRatio)
	}
	if math.Abs(st.BudgetConsumed-wantRatio/0.05) > 1e-9 {
		t.Errorf("budget consumed = %v", st.BudgetConsumed)
	}
	if st.Met() {
		t.Error("objective 0.95 with ~10%% errors must not be met")
	}
}

func TestSLOStatusReconcilesWithBusSnapshot(t *testing.T) {
	// End-to-end: counters live on the telemetry bus, the collector
	// scrapes them, and the SLO's Good/Total must equal the raw bus
	// totals when the window covers the whole run.
	clk := simclock.New()
	bus := telemetry.New()
	ok := bus.Counter(telemetry.Labeled("req", telemetry.Attr{Key: "outcome", Value: "ok"}))
	bad := bus.Counter(telemetry.Labeled("req", telemetry.Attr{Key: "outcome", Value: "err"}))
	c := tsdb.NewCollector(tsdb.New(tsdb.Options{}), bus, 0.25)
	clk.Every(0.25, 0.25, "traffic", func() {
		ok.Add(7)
		if clk.Now() >= 1 {
			bad.Add(1)
		}
	}, func() bool { return clk.Now() >= 3 })
	c.Start(clk, func() bool { return clk.Now() >= 3 })
	clk.RunUntil(3)

	s := SLO{Name: "avail", Objective: 0.99,
		Good: `req{outcome="ok"}`, Total: "req", Window: 10}
	st := s.Status(c.DB(), 3)

	snap := bus.Snapshot()
	mOK, _ := telemetry.Find(snap,
		telemetry.Labeled("req", telemetry.Attr{Key: "outcome", Value: "ok"}))
	mErr, _ := telemetry.Find(snap,
		telemetry.Labeled("req", telemetry.Attr{Key: "outcome", Value: "err"}))
	rawOK, rawErr := mOK.Value, mErr.Value
	if st.Good != rawOK || st.Total != rawOK+rawErr {
		t.Errorf("scorecard good/total = %v/%v, bus says %v/%v",
			st.Good, st.Total, rawOK, rawOK+rawErr)
	}
}

func TestBurnRateAlertFiresAndResolves(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	e := NewEngine(db)
	e.AddSLO(SLO{Name: "avail", Objective: 0.99,
		Good: `req{outcome="ok"}`, Total: "req", Window: 6})

	okL := tsdb.NewLabels(tsdb.L("outcome", "ok"))
	errL := tsdb.NewLabels(tsdb.L("outcome", "err"))
	var okC, errC float64
	var fired, resolved bool
	for t_ := 0.25; t_ <= 6+1e-9; t_ += 0.25 {
		okC += 10
		if t_ >= 2 && t_ < 3 { // one hour of 50% errors: burn 50 >> 14.4
			errC += 10
		}
		db.AppendRef(db.Ref("req", okL), t_, okC)
		db.AppendRef(db.Ref("req", errL), t_, errC)
		e.Step(t_)
		for _, inst := range e.Active() {
			if inst.Rule == "avail:burn:page" && inst.State == StateFiring {
				fired = true
			}
		}
		if fired && len(e.Active()) == 0 {
			resolved = true
		}
	}
	if !fired {
		t.Fatalf("burn alert never fired; timeline:\n%s", RenderTimeline(e.Timeline()))
	}
	if !resolved {
		t.Fatalf("burn alert never resolved; timeline:\n%s", RenderTimeline(e.Timeline()))
	}
	// The short window makes resolution prompt: no active alerts well
	// after the error burst stopped.
	if got := e.Active(); len(got) != 0 {
		t.Errorf("still active at t=6: %+v", got)
	}
}

func TestBurnRateNeedsBothWindows(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	s := SLO{Name: "s", Objective: 0.99, Good: `req{outcome="ok"}`, Total: "req"}
	okL := tsdb.NewLabels(tsdb.L("outcome", "ok"))
	errL := tsdb.NewLabels(tsdb.L("outcome", "err"))
	// Errors long ago: long window sees them, short window is clean.
	var okC, errC float64
	for t_ := 0.25; t_ <= 4+1e-9; t_ += 0.25 {
		okC += 10
		if t_ <= 1 {
			errC += 10
		}
		db.AppendRef(db.Ref("req", okL), t_, okC)
		db.AppendRef(db.Ref("req", errL), t_, errC)
	}
	w := BurnWindow{Severity: "page", Long: 4, Short: 0.5, Factor: 2}
	if vec := s.burnVector(db, 4, w); vec != nil {
		t.Errorf("clean short window must veto the alert: %+v", vec)
	}
	// Fresh errors: both windows agree.
	db.AppendRef(db.Ref("req", errL), 4.25, errC+40)
	db.AppendRef(db.Ref("req", okL), 4.25, okC+10)
	if vec := s.burnVector(db, 4.25, w); vec == nil {
		t.Error("both windows hot: alert condition must hold")
	}
}

func TestSLONoTraffic(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	s := SLO{Name: "quiet", Objective: 0.99, Good: "g", Total: "t"}
	if _, ok := s.burnRate(s.counters(), db, 1, 1); ok {
		t.Error("no traffic must report not-ok, not a burn rate")
	}
	st := s.Status(db, 1)
	if st.Total != 0 || st.ErrorRatio != 0 || !st.Met() {
		t.Errorf("empty status: %+v", st)
	}
}

func TestCounterResetInsideSLOWindow(t *testing.T) {
	db := tsdb.New(tsdb.Options{})
	// 0..30, reset, 0..20: true increase is 50.
	for i, v := range []float64{10, 20, 30, 5, 10, 20} {
		db.AppendRef(db.Ref("t", nil), float64(i)*0.25+0.25, v)
	}
	s := SLO{Name: "reset", Objective: 0.99, Good: "t", Total: "t"}
	if _, got := s.counters().increase(db, 1.5, 10); got != 50 {
		t.Errorf("increase with reset = %v, want 50", got)
	}
}

// A Good selector that does not parse, or parses to anything but an
// instant selector, used to read as zero good events, so an SLO whose
// every request succeeded paged at a burn rate of 100. It is an error
// instead, and the SLO's burn rules are skipped.
func TestMalformedSLOSelectorIsAnErrorNotAPage(t *testing.T) {
	for _, good := range []string{`req{code="200"`, `req{code="200"}[1h]`, `rate(req[1h])`} {
		t.Run(good, func(t *testing.T) {
			db := tsdb.New(tsdb.Options{})
			e := NewEngine(db)
			e.AddSLO(SLO{Name: "s", Objective: 0.99, Good: good, Total: "req", Window: 6})
			okL := tsdb.NewLabels(tsdb.L("code", "200"))
			for i := 1; i <= 32; i++ {
				at := float64(i) * 0.25
				db.AppendRef(db.Ref("req", okL), at, float64(10*i))
				e.Step(at)
			}
			errs := e.Errors()
			if len(errs) != 1 || !strings.HasPrefix(errs[0], "s: good selector: ") {
				t.Errorf("errors = %q, want one `s: good selector: ...`", errs)
			}
			if tl := e.Timeline(); len(tl) != 0 {
				t.Errorf("malformed SLO changed state:\n%s", RenderTimeline(tl))
			}
		})
	}
}

// stepCost returns the fewest mallocs and bytes one Engine.Step
// allocates with the rule set of examples/distributed-training, over a
// store holding hours of quarter-hourly history of the series those
// rules read. The minimum over many steps leaves out sync.Pool misses,
// which the race detector makes random.
func stepCost(t *testing.T, hours float64) (mallocs, bytes uint64) {
	db := tsdb.New(tsdb.Options{Retention: 168})
	okL := tsdb.NewLabels(tsdb.L("outcome", "ok"))
	missL := tsdb.NewLabels(tsdb.L("outcome", "missed"))
	bounds := append(telemetry.ExpBuckets(0.25, 2, 10), math.Inf(1))
	for i := 0; float64(i)*0.25 <= hours; i++ {
		at := float64(i) * 0.25
		db.AppendRef(db.Ref("train.steps", okL), at, float64(6*i))
		db.AppendRef(db.Ref("train.steps", missL), at, 0)
		for _, le := range bounds {
			db.AppendRef(db.Ref("orchestrator.reschedule_latency_hours_bucket", tsdb.NewLabels(tsdb.L("le", strconv.FormatFloat(le, 'g', -1, 64)))), at, 3)
		}
	}
	e := NewEngine(db)
	e.AddRule(Rule{Name: "PodRescheduleSlow",
		Expr: "histogram_quantile(0.95, increase(orchestrator.reschedule_latency_hours_bucket[2h])) > 0.25",
		For:  0.5, Severity: "page"})
	e.AddSLO(SLO{Name: "train-steps", Objective: 0.99,
		Good: `train.steps{outcome="ok"}`, Total: "train.steps", Window: 6})
	// One P, set before the warm-up step: sync.Pool sizes its per-P
	// caches on first use after a change.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e.Step(hours)
	mallocs, bytes = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for i := 0; i < 30; i++ {
		runtime.ReadMemStats(&before)
		e.Step(hours)
		runtime.ReadMemStats(&after)
		mallocs = min(mallocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if errs := e.Errors(); len(errs) > 0 || len(e.Timeline()) > 0 {
		t.Fatalf("the quiet rule set must evaluate cleanly: errors %q, timeline %v", errs, e.Timeline())
	}
	return mallocs, bytes
}

// The allocation contract of a quiet step over the bench's rule set:
// rule names are built at registration, literals are boxed at parse time
// and quantile grouping reuses its working space, so what is left is the
// range function's result.
func TestStepAllocs(t *testing.T) {
	if m, _ := stepCost(t, 24); m > 3 {
		t.Errorf("a quiet Step allocates %d times, want <= 3", m)
	}
}

// A step reads windows of at most 6 h, so what it allocates must not
// grow with the retained history.
func TestStepCostIndependentOfRetainedHistory(t *testing.T) {
	m24, b24 := stepCost(t, 24)
	m168, b168 := stepCost(t, 168)
	if m168 != m24 || b168 != b24 {
		t.Errorf("Step allocates %d mallocs / %d B at 24 h of history but %d / %d B at 168 h",
			m24, b24, m168, b168)
	}
}
