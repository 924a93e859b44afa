package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"elsc/internal/experiments"
)

// TestCommandLineNames pins what websim does with a name it is given:
// `-machine nope` exits 2 with the registered machine specs on stderr and nothing
// else — experiments.SpecByLabel panics on an unknown name, which is right for
// code and wrong for a typo — and the -machine help is built from the same
// list. The test re-executes itself so main's exit lands in a child
// process.
func TestCommandLineNames(t *testing.T) {
	if args := os.Getenv("WEBSIM_TEST_ARGS"); args != "" {
		os.Args = append([]string{"websim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	names := experiments.Labels(experiments.AllSpecs)
	for _, c := range []struct {
		args string
		exit int
		want string
	}{
		{"-machine nope", 2, `unknown name "nope" (registered: ` + strings.Join(names, " ") + ")\n"},
		{"-h", 0, "machine spec: " + strings.Join(names, ", ")},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCommandLineNames$")
		cmd.Env = append(os.Environ(), "WEBSIM_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		exit := 0
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("websim %s: %v", c.args, err)
		}
		if exit != c.exit || !strings.Contains(string(out), c.want) || strings.Contains(string(out), "[running]") {
			t.Errorf("websim %s: exit %d, want %d with %q and no goroutine trace; output:\n%s",
				c.args, exit, c.exit, c.want, out)
		}
	}
}
