package report

import (
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/cost"
)

func spotRecs() []cloud.UsageRecord {
	tags := func(pool string) cloud.Tags {
		return cloud.NewTags("pricing", "spot", "pool", pool)
	}
	return []cloud.UsageRecord{
		// 2h across a price step: 1h @ $0.40 + 1h @ $0.60 = $1.00.
		{Kind: cloud.UsageInstance, Resource: "compute_liqid", Tags: tags("compute_liqid"),
			Quantity: 1, Start: 0, End: 2},
		// 1.5h flat @ $0.40 = $0.60.
		{Kind: cloud.UsageInstance, Resource: "compute_liqid", Tags: tags("compute_liqid"),
			Quantity: 1, Start: 2, End: 3.5},
		// On-demand record: not part of the spot bill.
		{Kind: cloud.UsageInstance, Resource: "compute_liqid",
			Quantity: 1, Start: 0, End: 10},
		// Storage record: ignored even though spot-tagged.
		{Kind: cloud.UsageObjectStorageGB, Tags: tags("compute_liqid"),
			Quantity: 100, Start: 0, End: 10},
	}
}

func liqidSeries(pool string) (cost.SpotPriceSeries, bool) {
	if pool != "compute_liqid" {
		return cost.SpotPriceSeries{}, false
	}
	return cost.SpotPriceSeries{
		OnDemandPerHour: 1.212,
		Segments: []cost.SpotSegment{
			{Start: 0, PerHour: 0.40},
			{Start: 1, PerHour: 0.60},
		},
	}, true
}

func TestGatherSpotBillReconcilesToTheCent(t *testing.T) {
	bill := GatherSpotBill(spotRecs(), 10, liqidSeries)
	if len(bill.Pools) != 1 {
		t.Fatalf("pools = %d, want 1", len(bill.Pools))
	}
	p := bill.Pools[0]
	// Record 1: 100¢; record 2: 1.5h @ 0.60 = 90¢. Total 190¢.
	if p.SpotCents != 190 {
		t.Fatalf("spot cents = %d, want 190", p.SpotCents)
	}
	// On-demand: 3.5h @ 1.212 = $4.242 → 424¢ total, rounded per record:
	// 2h = 242¢ (2.424), 1.5h = 182¢ (1.818) → 424¢.
	if p.OnDemandCents != 242+182 {
		t.Fatalf("on-demand cents = %d, want %d", p.OnDemandCents, 242+182)
	}
	if p.Hours != 3.5 {
		t.Fatalf("hours = %v, want 3.5", p.Hours)
	}
	// Totals are sums of parts — the reconciliation invariant.
	var sumSpot, sumOD int64
	for _, pp := range bill.Pools {
		sumSpot += pp.SpotCents
		sumOD += pp.OnDemandCents
	}
	if bill.SpotCents != sumSpot || bill.OnDemandCents != sumOD {
		t.Fatalf("totals %d/%d do not reconcile with pool sums %d/%d",
			bill.SpotCents, bill.OnDemandCents, sumSpot, sumOD)
	}
	if bill.SavingsCents != bill.OnDemandCents-bill.SpotCents {
		t.Fatalf("savings %d != %d - %d", bill.SavingsCents, bill.OnDemandCents, bill.SpotCents)
	}
	if bill.SavingsCents <= 0 {
		t.Fatal("spot must undercut on-demand in this fixture")
	}
}

func TestSpotRenderDeterministicAndComplete(t *testing.T) {
	s := GatherSpot(nil, spotRecs(), 10, liqidSeries)
	a, b := Spot(s), Spot(s)
	if a != b {
		t.Fatal("rendering not deterministic")
	}
	for _, want := range []string{"== Spot ==", "spot bill:", "$1.90", "$4.24", "$2.34", "pool compute_liqid:"} {
		if !strings.Contains(a, want) {
			t.Fatalf("summary missing %q:\n%s", want, a)
		}
	}
}

func TestGatherSpotNilBusSafe(t *testing.T) {
	s := GatherSpot(nil, nil, 0, liqidSeries)
	if s.Jobs != 0 || s.Bill.SpotCents != 0 || len(s.Bill.Pools) != 0 {
		t.Fatalf("empty gather not zero: %+v", s)
	}
	out := Spot(s)
	if !strings.Contains(out, "n/a (no recoveries measured)") {
		t.Fatalf("missing n/a MTTR line:\n%s", out)
	}
}
