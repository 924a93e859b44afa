package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"elsc/internal/experiments"
)

// TestCommandLineNames pins what schedtrace does with a name it is given:
// `-sched nope` exits 2 with the registered policies on stderr and nothing
// else — experiments.Factory panics on an unknown name, which is right for
// code and wrong for a typo — and the -sched help is built from the same
// list. The test re-executes itself so main's exit lands in a child
// process.
func TestCommandLineNames(t *testing.T) {
	if args := os.Getenv("SCHEDTRACE_TEST_ARGS"); args != "" {
		os.Args = append([]string{"schedtrace"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	names := experiments.Policies
	for _, c := range []struct {
		args string
		exit int
		want string
	}{
		{"-sched nope", 2, `unknown name "nope" (registered: ` + strings.Join(names, " ") + ")\n"},
		{"-h", 0, "scheduler: " + strings.Join(names, ", ")},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCommandLineNames$")
		cmd.Env = append(os.Environ(), "SCHEDTRACE_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		exit := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("schedtrace %s: %v", c.args, err)
		}
		if exit != c.exit || !strings.Contains(string(out), c.want) || strings.Contains(string(out), "[running]") {
			t.Errorf("schedtrace %s: exit %d, want %d with %q and no goroutine trace; output:\n%s",
				c.args, exit, c.exit, c.want, out)
		}
	}
}
