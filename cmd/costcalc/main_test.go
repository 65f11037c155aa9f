package main

import (
	"log"
	"os"
	"strings"
	"testing"
)

// Hours from the command line must lie in [0, maxHours], or the printed
// price is negative, NaN or infinite.
func TestRunRejectsBadHours(t *testing.T) {
	var msgs strings.Builder
	log.SetOutput(&msgs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-row", "2", "-hours", "-5"}, "-hours"},
		{[]string{"-row", "2", "-hours", "NaN"}, "-hours"},
		{[]string{"-row", "2", "-hours", "Inf"}, "-hours"},
		{[]string{"-row", "2", "-hours", "300", "-fip-hours", "-1"}, "-fip-hours"},
		{[]string{"-row", "2", "-hours", "300", "-fip-hours", "NaN"}, "-fip-hours"},
		{[]string{"-class", "gpu-a100", "-hours", "-5"}, "-hours"},
		{[]string{"-class", "gpu-a100", "-hours", "NaN"}, "-hours"},
		{[]string{"-class", "gpu-a100", "-hours", "48", "-fip-hours", "-Inf"}, "-fip-hours"},
		{[]string{"-class", "gpu-a100", "-hours", "1e308"}, "-hours"},
		{[]string{"-row", "4-multi-a100", "-hours", "1e308"}, "-hours"},
	} {
		msgs.Reset()
		var out strings.Builder
		cmd := "costcalc " + strings.Join(tc.args, " ")
		if code := run(tc.args, &out); code == 0 || out.Len() != 0 {
			t.Errorf("%s: exit %d, printed %q; want a non-zero exit and no price", cmd, code, out.String())
		}
		if !strings.Contains(msgs.String(), tc.flag+" must be") {
			t.Errorf("%s: message %q does not name %s", cmd, msgs.String(), tc.flag)
		}
	}
}

// The edge row runs on Raspberry Pis, which no commercial cloud sells:
// costcalc says so instead of printing a price with no instance name.
func TestRunRejectsRowWithoutEquivalent(t *testing.T) {
	var msgs strings.Builder
	log.SetOutput(&msgs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	var out strings.Builder
	if code := run([]string{"-row", "6-edge", "-hours", "5", "-fip-hours", "100"}, &out); code != 1 || out.Len() != 0 {
		t.Errorf("exit %d, printed %q; want exit 1 and no price", code, out.String())
	}
	if !strings.Contains(msgs.String(), "no commercial-cloud equivalent") {
		t.Errorf("message %q does not say the row has no equivalent", msgs.String())
	}
}

func TestRunPricesRow(t *testing.T) {
	var out strings.Builder
	if code := run([]string{"-row", "2", "-hours", "300", "-fip-hours", "100"}, &out); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	want := "AWS: $12.98  (t3.medium @ $0.0416/h + IP @ $0.005/h)\n" +
		"GCP: $30.65  (n2-standard-2 @ $0.1005/h + IP @ $0.005/h)\n"
	if out.String() != want {
		t.Errorf("got:\n%swant:\n%s", out.String(), want)
	}
}
