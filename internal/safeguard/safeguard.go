// Package safeguard implements the Unit-9 lecture content — risks posed
// by deployed ML systems and guardrails against them — as a working
// substrate: a harm-category taxonomy, a policy-driven content filter
// chain (pattern rules, PII detection, confidence gating), a red-team
// harness that probes a model with templated attack variants and scores
// category coverage, and cognitive-forcing wrappers that attach
// uncertainty disclosures to low-confidence predictions.
//
// Unit 9 had no lab (project time), so unlike the other substrates this
// package tracks the lecture's taxonomy rather than a lab's workflow; it
// is exercised by tests and by the safety gate in the serving examples.
package safeguard

import (
	"fmt"
	"sort"
	"strings"
)

// Category is a harm category from the lecture's taxonomy.
type Category string

const (
	Bias           Category = "bias"
	Privacy        Category = "privacy"
	HarmfulContent Category = "harmful-content"
)

// Decision is a filter verdict.
type Decision int

const (
	Allow Decision = iota
	Flag           // deliver with a warning / human review
	Block
)

func (d Decision) String() string {
	switch d {
	case Allow:
		return "allow"
	case Flag:
		return "flag"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Verdict is a filter's full output: the decision, which rule fired, and
// the harm category involved.
type Verdict struct {
	Decision Decision
	Rule     string
	Category Category
	Detail   string
}

// Filter inspects content and renders a verdict; Allow with empty Rule
// means "no opinion".
type Filter interface {
	Check(content string) Verdict
	Name() string
}

// PatternFilter blocks or flags content containing any of its phrases
// (case-insensitive substring match — the simple keyword guardrail the
// lecture presents first, limitations included).
type PatternFilter struct {
	RuleName string
	Cat      Category
	Action   Decision
	Phrases  []string
}

// Name implements Filter.
func (f *PatternFilter) Name() string { return f.RuleName }

// Check implements Filter.
func (f *PatternFilter) Check(content string) Verdict {
	lower := strings.ToLower(content)
	for _, p := range f.Phrases {
		if strings.Contains(lower, strings.ToLower(p)) {
			return Verdict{Decision: f.Action, Rule: f.RuleName, Category: f.Cat,
				Detail: fmt.Sprintf("matched %q", p)}
		}
	}
	return Verdict{Decision: Allow}
}

// PIIFilter detects personally identifying information: email addresses,
// US-style phone numbers, and credit-card-like digit runs (with a Luhn
// check to cut false positives).
type PIIFilter struct {
	// Action on detection; Flag by default.
	Action Decision
}

// Name implements Filter.
func (f *PIIFilter) Name() string { return "pii" }

// Check implements Filter.
func (f *PIIFilter) Check(content string) Verdict {
	action := f.Action
	if action == Allow {
		action = Flag
	}
	if kind, ok := detectPII(content); ok {
		return Verdict{Decision: action, Rule: "pii", Category: Privacy,
			Detail: kind + " detected"}
	}
	return Verdict{Decision: Allow}
}

// detectPII scans for the three PII shapes without regexp (stdlib-only,
// and the shapes are simple enough for hand-rolled scanners).
func detectPII(s string) (string, bool) {
	if hasEmail(s) {
		return "email address", true
	}
	if hasPhone(s) {
		return "phone number", true
	}
	if hasCardNumber(s) {
		return "payment card number", true
	}
	return "", false
}

func hasEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	for at > 0 {
		// Need a word char before '@' and a "x.y" after it.
		if isWordChar(s[at-1]) {
			rest := s[at+1:]
			dot := strings.IndexByte(rest, '.')
			if dot > 0 && dot+1 < len(rest) && isWordChar(rest[0]) && isWordChar(rest[dot+1]) {
				return true
			}
		}
		next := strings.IndexByte(s[at+1:], '@')
		if next < 0 {
			return false
		}
		at = at + 1 + next
	}
	return false
}

func hasPhone(s string) bool {
	// 10 consecutive digits allowing -, space, (, ) separators.
	digits := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
			if digits == 10 {
				return true
			}
		case c == '-' || c == ' ' || c == '(' || c == ')' || c == '.':
			// separator: keep counting
		default:
			digits = 0
		}
	}
	return false
}

func hasCardNumber(s string) bool {
	// 13–19 contiguous digits (spaces/dashes allowed) passing Luhn.
	var digits []byte
	flush := func() bool {
		ok := len(digits) >= 13 && len(digits) <= 19 && luhn(digits)
		digits = digits[:0]
		return ok
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			digits = append(digits, c-'0')
		case c == ' ' || c == '-':
			// separator inside a number: keep going
		default:
			if flush() {
				return true
			}
		}
	}
	return flush()
}

func luhn(digits []byte) bool {
	sum := 0
	double := false
	for i := len(digits) - 1; i >= 0; i-- {
		d := int(digits[i])
		if double {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		double = !double
	}
	return sum%10 == 0
}

func isWordChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '_' || c == '-' || c == '+'
}

// Pipeline runs filters in order; the first non-Allow verdict wins
// (Block beats Flag only by ordering — put blockers first).
type Pipeline struct {
	Filters []Filter
}

// Check evaluates content through the chain.
func (p *Pipeline) Check(content string) Verdict {
	for _, f := range p.Filters {
		v := f.Check(content)
		if v.Decision != Allow {
			return v
		}
	}
	return Verdict{Decision: Allow}
}

// DefaultPipeline returns a filter chain with the lecture's three layers:
// harmful-content blocking, bias-term flagging, and PII flagging.
func DefaultPipeline() *Pipeline {
	return &Pipeline{Filters: []Filter{
		&PatternFilter{RuleName: "harmful-content", Cat: HarmfulContent, Action: Block,
			Phrases: []string{"how to make a weapon", "self-harm instructions"}},
		&PatternFilter{RuleName: "demeaning-language", Cat: Bias, Action: Flag,
			Phrases: []string{"people like them can't", "typical of those people"}},
		&PIIFilter{},
	}}
}

// Prediction is a model output with calibrated confidence, the input to
// the cognitive-forcing wrapper.
type Prediction struct {
	Label      string
	Confidence float64
}

// ForcedResponse is a prediction wrapped with the friction the lecture
// recommends against overreliance.
type ForcedResponse struct {
	Prediction Prediction
	// Disclose is the uncertainty disclosure shown to the user ("" when
	// confidence clears the threshold).
	Disclose string
	// RequireConfirmation forces an explicit user acknowledgment before
	// the prediction is acted on.
	RequireConfirmation bool
}

// CognitiveForcing wraps predictions: below warnAt confidence it attaches
// a disclosure; below confirmAt it additionally demands confirmation.
type CognitiveForcing struct {
	WarnAt    float64
	ConfirmAt float64
}

// Wrap applies the policy to a prediction.
func (c CognitiveForcing) Wrap(p Prediction) ForcedResponse {
	out := ForcedResponse{Prediction: p}
	if p.Confidence < c.ConfirmAt {
		out.RequireConfirmation = true
	}
	if p.Confidence < c.WarnAt {
		out.Disclose = fmt.Sprintf("low confidence (%.0f%%): verify before relying on this label",
			100*p.Confidence)
	}
	return out
}

// --- Red teaming ----------------------------------------------------------

// Probe is one adversarial test: an input the model should refuse or
// handle safely, tagged with the harm category it targets.
type Probe struct {
	Name     string
	Category Category
	Input    string
	// Unsafe reports whether the model's response to Input violates the
	// probe (true = the attack succeeded).
	Unsafe func(response string) bool
}

// RefusalProbe builds a probe that succeeds (is safe) only when the
// response contains one of the refusal markers.
func RefusalProbe(name string, cat Category, input string, refusalMarkers ...string) Probe {
	return Probe{Name: name, Category: cat, Input: input,
		Unsafe: func(resp string) bool {
			lower := strings.ToLower(resp)
			for _, m := range refusalMarkers {
				if strings.Contains(lower, strings.ToLower(m)) {
					return false
				}
			}
			return true
		}}
}

// RedTeamReport summarizes a probe sweep.
type RedTeamReport struct {
	Total      int
	Failures   []string // probe names whose attack succeeded
	ByCategory map[Category]struct{ Total, Failed int }
}

// FailureRate returns failed/total (0 for an empty sweep).
func (r RedTeamReport) FailureRate() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(len(r.Failures)) / float64(r.Total)
}

// RedTeam runs every probe against the model.
func RedTeam(model func(input string) string, probes []Probe) RedTeamReport {
	rep := RedTeamReport{ByCategory: map[Category]struct{ Total, Failed int }{}}
	for _, p := range probes {
		rep.Total++
		agg := rep.ByCategory[p.Category]
		agg.Total++
		if p.Unsafe(model(p.Input)) {
			rep.Failures = append(rep.Failures, p.Name)
			agg.Failed++
		}
		rep.ByCategory[p.Category] = agg
	}
	sort.Strings(rep.Failures)
	return rep
}
