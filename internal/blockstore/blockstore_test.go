package blockstore

import (
	"errors"
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/simclock"
)

func newSvc() (*Service, *cloud.Cloud, *simclock.Clock) {
	clk := simclock.New()
	cl := cloud.New("test", clk)
	cl.CreateProject("p", cloud.Quota{Volumes: 3, BlockStorageGB: 10,
		Instances: 10, Cores: 100, RAMGB: 100})
	return New(clk, cl), cl, clk
}

func TestVolumeLifecycle(t *testing.T) {
	s, _, _ := newSvc()
	v, err := s.Create("p", "data", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateAvailable {
		t.Fatalf("state = %v, want available", v.State)
	}
	if err := s.Attach(v.ID, "inst-1"); err != nil {
		t.Fatal(err)
	}
	if v.State != StateInUse || v.AttachedTo != "inst-1" {
		t.Errorf("after attach: state %v, attached to %q", v.State, v.AttachedTo)
	}
}

func TestStateMachineGuards(t *testing.T) {
	s, _, _ := newSvc()
	v, _ := s.Create("p", "data", 1)
	mustNil(t, s.Attach(v.ID, "i1"))
	if err := s.Attach(v.ID, "i2"); !errors.Is(err, ErrInUse) {
		t.Errorf("double attach err = %v", err)
	}
	if err := s.Attach("ghost", "i1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("attach missing err = %v", err)
	}
}

func TestQuotaEnforcement(t *testing.T) {
	s, cl, _ := newSvc()
	if _, err := s.Create("p", "big", 20); !errors.Is(err, ErrQuota) {
		t.Errorf("oversize create err = %v, want ErrQuota", err)
	}
	if _, err := s.Create("p", "a", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("p", "b", 6); !errors.Is(err, ErrQuota) {
		t.Errorf("second create err = %v, want ErrQuota (6+6 > 10)", err)
	}
	p, _ := cl.GetProject("p")
	if p.Usage.BlockStorageGB != 6 || p.Usage.Volumes != 1 {
		t.Errorf("usage after rejected create: %+v", p.Usage)
	}
}

// TestQuotaCheckDoesNotWrap creates a volume so large that usage plus
// size wraps past the largest int: it must fail on quota and leave usage
// as it was.
func TestQuotaCheckDoesNotWrap(t *testing.T) {
	s, cl, _ := newSvc()
	if _, err := s.Create("p", "b", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create("p", "a", math.MaxInt); !errors.Is(err, ErrQuota) {
		t.Errorf("create of MaxInt GB err = %v, want ErrQuota", err)
	}
	if p, _ := cl.GetProject("p"); p.Usage.BlockStorageGB != 5 || p.Usage.Volumes != 1 {
		t.Errorf("usage after rejected create: %+v", p.Usage)
	}
}

func TestVolumeCountQuota(t *testing.T) {
	s, _, _ := newSvc()
	for i := 0; i < 3; i++ {
		if _, err := s.Create("p", "v", 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Create("p", "v4", 1); !errors.Is(err, ErrQuota) {
		t.Errorf("4th volume err = %v, want ErrQuota", err)
	}
}

func TestMeteringGBHours(t *testing.T) {
	s, cl, clk := newSvc()
	if _, err := s.Create("p", "data", 4); err != nil {
		t.Fatal(err)
	}
	clk.RunUntil(10)
	recs := cl.Meter().Records(func(r *cloud.UsageRecord) bool {
		return r.Kind == cloud.UsageBlockStorageGB
	})
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	gbHours := recs[0].Quantity * recs[0].Hours(clk.Now())
	if gbHours != 40 {
		t.Errorf("GB-hours = %v, want 40", gbHours)
	}
}

func TestInvalidSize(t *testing.T) {
	s, _, _ := newSvc()
	if _, err := s.Create("p", "bad", 0); err == nil {
		t.Error("expected error for zero-size volume")
	}
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
