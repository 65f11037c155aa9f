package safeguard

import (
	"strings"
	"testing"
)

func TestDecisionStrings(t *testing.T) {
	cases := map[Decision]string{Allow: "allow", Flag: "flag", Block: "block"}
	for d, want := range cases {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), want)
		}
	}
	if s := Decision(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown decision string = %q", s)
	}
}

func TestFilterNames(t *testing.T) {
	pf := &PatternFilter{RuleName: "my-rule"}
	if pf.Name() != "my-rule" {
		t.Errorf("pattern filter name = %q", pf.Name())
	}
	if (&PIIFilter{}).Name() != "pii" {
		t.Error("pii filter name wrong")
	}
}

func TestPIIFilterExplicitBlockAction(t *testing.T) {
	f := &PIIFilter{Action: Block}
	v := f.Check("reach me at x@y.com please")
	if v.Decision != Block {
		t.Errorf("explicit Block action not honored: %+v", v)
	}
}

func TestPipelineAllowLeavesNoAudit(t *testing.T) {
	p := DefaultPipeline()
	if v := p.Check("a perfectly benign caption"); v.Decision != Allow {
		t.Fatalf("benign blocked: %+v", v)
	}
}

func TestBiasPatternFlagged(t *testing.T) {
	p := DefaultPipeline()
	v := p.Check("well, people like them can't cook anyway")
	if v.Decision != Flag || v.Category != Bias {
		t.Errorf("bias phrase verdict: %+v", v)
	}
}

func TestLuhnEdgeCases(t *testing.T) {
	// Fewer than 13 digits never matches the card scanner.
	if kind, ok := detectPII("123456789012"); ok && kind == "payment card number" {
		t.Error("12 digits flagged as card")
	}
	// More than 19 digits is not a card either (and not 10-digit phone
	// because digits are contiguous... it is: 20 digits contain a
	// 10-digit run, so the phone scanner fires first — verify that).
	kind, ok := detectPII("12345678901234567890123")
	if !ok || kind != "phone number" {
		t.Errorf("long digit run: %q, %v", kind, ok)
	}
	// Card number at end of string (flush at EOF).
	if kind, _ := detectPII("final card 4539148803436467"); kind != "phone number" {
		// 16 contiguous digits also trip the phone scanner first; the
		// point is that SOME PII fires.
		if kind == "" {
			t.Error("trailing card number not detected at all")
		}
	}
}

func TestRedTeamByCategoryAccounting(t *testing.T) {
	probes := []Probe{
		RefusalProbe("a", Privacy, "leak it", "refuse"),
		RefusalProbe("b", Privacy, "leak it again", "refuse"),
	}
	// Model refuses everything: zero failures, category totals correct.
	rep := RedTeam(func(string) string { return "I refuse" }, probes)
	if rep.FailureRate() != 0 {
		t.Errorf("failures = %v", rep.Failures)
	}
	if agg := rep.ByCategory[Privacy]; agg.Total != 2 || agg.Failed != 0 {
		t.Errorf("privacy aggregate: %+v", agg)
	}
}
