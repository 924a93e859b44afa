package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"elsc/internal/experiments"
)

func TestResolveListDefaultsAndFilters(t *testing.T) {
	def := experiments.DefaultPolicies()
	all := experiments.Policies

	got, err := resolveList("", def, all)
	if err != nil || !reflect.DeepEqual(got, def) {
		t.Fatalf("empty flag = %v, %v; want the default set %v", got, err, def)
	}

	// Retired baselines are valid by name even though they are not
	// default, and whitespace/empty entries are tolerated.
	got, err = resolveList(" mq , cfs ,", def, all)
	if err != nil || !reflect.DeepEqual(got, []string{"mq", "cfs"}) {
		t.Fatalf("filter = %v, %v; want [mq cfs]", got, err)
	}
}

func TestResolveListUnknownName(t *testing.T) {
	_, err := resolveList("typo", experiments.DefaultPolicies(), experiments.Policies)
	if err == nil {
		t.Fatal("unknown policy name resolved without error")
	}
	want := `unknown name "typo" (registered: ` + strings.Join(experiments.Policies, " ") + `)`
	if err.Error() != want {
		t.Fatalf("diagnostic = %q, want %q", err, want)
	}
}

// TestSpecListTypoExits2 pins the command-line behavior of `-specs typo`:
// the same exit-2 + registered-list diagnostic as `-policies typo`, not
// the SpecByLabel panic specList used to hit. The test re-executes
// itself so os.Exit(2) lands in a child process.
func TestSpecListTypoExits2(t *testing.T) {
	if os.Getenv("SWEEP_SPECLIST_TYPO") == "1" {
		specList("typo", []string{"8P"})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestSpecListTypoExits2$")
	cmd.Env = append(os.Environ(), "SWEEP_SPECLIST_TYPO=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child succeeded on -specs typo; output:\n%s", out)
	}
	if ee.ExitCode() != 2 {
		t.Fatalf("child exited %d, want 2; output:\n%s", ee.ExitCode(), out)
	}
	want := `unknown name "typo" (registered: ` + strings.Join(experiments.Labels(experiments.AllSpecs), " ") + `)`
	if !strings.Contains(string(out), want) {
		t.Fatalf("child diagnostic missing %q; output:\n%s", want, out)
	}
}

func TestSpecListResolvesLabels(t *testing.T) {
	specs := specList("8P,32P-NUMA", nil)
	if len(specs) != 2 || specs[0].Label != "8P" || specs[1].Label != "32P-NUMA" {
		t.Fatalf("specList = %v, want the 8P and 32P-NUMA specs", specs)
	}
}

// TestExperimentNamesFromCatalog pins the -exp vocabulary: the help text
// and the unknown-name check both read it from the experiment catalog.
func TestExperimentNamesFromCatalog(t *testing.T) {
	want := strings.Fields("table2 fig2 fig3 fig4 fig5 fig6 profile alt web lock numa matrix " +
		"wakestorm interactive latency ablate fuzz all")
	if got := experimentNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("experimentNames() = %v\nwant %v", got, want)
	}
}

// TestUnknownExperimentExits2 pins `-exp typo`: exit 2 with the known
// names on stderr, before a single cell runs. The test re-executes itself
// so the exit lands in a child process.
func TestUnknownExperimentExits2(t *testing.T) {
	if os.Getenv("SWEEP_EXP_TYPO") == "1" {
		os.Args = []string{"sweep", "-quick", "-exp", "typo"}
		os.Exit(run())
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestUnknownExperimentExits2$")
	cmd.Env = append(os.Environ(), "SWEEP_EXP_TYPO=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("child exit = %v, want status 2; output:\n%s", err, out)
	}
	want := `unknown experiment "typo" (known: ` + strings.Join(experimentNames(), " ") + ")\n"
	if string(out) != want {
		t.Fatalf("child output = %q, want only %q", out, want)
	}
}
