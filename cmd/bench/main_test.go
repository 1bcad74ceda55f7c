package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestDispatch checks the experiment table against the command's
// surfaces without running any experiment: every name is selectable,
// listed in the -experiment help and in the package doc's usage line,
// "all" runs the whole table in order, and an unknown name is a usage
// error.
func TestDispatch(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var docUsage string
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "//\tbench -experiment ") {
			docUsage = strings.Fields(line)[3]
		}
	}
	var help bytes.Buffer
	if code := run([]string{"-h"}, &help, &help); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	if docUsage != usage() {
		t.Errorf("package doc lists %q, table has %q", docUsage, usage())
	}
	for _, e := range experiments {
		if got := selectExperiments(e.name); len(got) != 1 || got[0].name != e.name {
			t.Errorf("%s: selected %v", e.name, got)
		}
		if !strings.Contains(help.String(), e.name) {
			t.Errorf("%s missing from -experiment help:\n%s", e.name, help.String())
		}
	}
	if all := selectExperiments("all"); len(all) != len(experiments) {
		t.Errorf("all selects %d of %d experiments", len(all), len(experiments))
	}

	var out, errb bytes.Buffer
	if code := run([]string{"-experiment", "fig11"}, &out, &errb); code != 2 {
		t.Errorf("unknown experiment exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), `unknown experiment "fig11"`) {
		t.Errorf("stderr = %q", errb.String())
	}
}
