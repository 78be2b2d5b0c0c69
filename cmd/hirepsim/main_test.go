package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func names(es []experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != 13 || !slices.Equal(names(all), names(experiments)) {
		t.Fatalf(`"all" selected %v (err %v), want all 13 in run order`, names(all), err)
	}
	list, err := selectExperiments("fig8,table1")
	if err != nil || !slices.Equal(names(list), []string{"table1", "fig8"}) {
		t.Fatalf(`"fig8,table1" selected %v (err %v), want [table1 fig8]`, names(list), err)
	}
	for _, spec := range []string{"table1,fig9", "fig9", "", "table1,"} {
		if got, err := selectExperiments(spec); err == nil {
			t.Fatalf("%q selected %v, want an error", spec, names(got))
		}
	}
}

// TestUnknownExperimentExitsBeforeRunning runs the command with one valid and
// one unknown name: it must exit 2 before running the valid one.
func TestUnknownExperimentExitsBeforeRunning(t *testing.T) {
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "hirepsim")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-quick", "-exp", "table1,fig9")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("ran before rejecting the list:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `"fig9"`) {
		t.Fatalf("stderr does not name the unknown experiment: %q", stderr.String())
	}
}
