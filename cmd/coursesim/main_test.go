package main

import (
	"log"
	"os"
	"strings"
	"testing"
)

// A bad flag value exits non-zero with the error and no report.
func TestRunRejectsNegativeStudents(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-students", "-5"}, "negative Students -5"},
		{[]string{"-sharded", "-shardsize", "-1"}, "negative ShardSize -1"},
		{[]string{"-sharded", "-workers", "-1"}, "negative Workers -1"},
		{[]string{"-seeds", "-3"}, "negative -seeds -3"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var msgs, out strings.Builder
			log.SetOutput(&msgs)
			t.Cleanup(func() { log.SetOutput(os.Stderr) })
			if code := run(tc.args, &out); code != 1 || out.Len() != 0 {
				t.Errorf("exit %d, printed %q; want exit 1 and no report", code, out.String())
			}
			if !strings.Contains(msgs.String(), tc.want) {
				t.Errorf("message %q does not name the bad value: want %q", msgs.String(), tc.want)
			}
		})
	}
}

// Zero -students and -seed run the defaults, so the report must describe
// those runs, not the zeros: its header and its reservation plan.
func TestZeroFlagsReportWhatRan(t *testing.T) {
	var zero, def strings.Builder
	if run([]string{"-students", "0", "-seed", "0"}, &zero) != 0 || run(nil, &def) != 0 {
		t.Fatal("a run failed")
	}
	if zero.String() != def.String() {
		t.Errorf("-students 0 -seed 0 printed\n%s\nwant the default run's\n%s", zero.String(), def.String())
	}
}
