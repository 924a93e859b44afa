package experiments

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"elsc/internal/kernel"
	"elsc/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from this run")

const decisionsGolden = "testdata/decisions.golden"

// decisionDigest folds one schedule() decision into a running 64-bit hash:
// each field is xored in, multiplied by an odd constant and xorshifted, so
// a swapped pair of equal-goodness picks changes the result even where
// every aggregate the tables and the benchmark digests read agrees.
func decisionDigest(h uint64, ev kernel.TraceEvent) uint64 {
	next := 0
	if ev.Next != nil {
		next = ev.Next.ID
	}
	for _, v := range [...]uint64{uint64(ev.Now), uint64(ev.CPU), uint64(ev.Prev.ID), uint64(next)} {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// quickMatrixCells are the 60 cells `sweep -quick -exp matrix` runs: every
// default policy and registered workload on 8P and 32P-NUMA, at QuickScale
// with 30 messages.
func quickMatrixCells() ([]Cell, Scale) {
	sc := QuickScale()
	sc.Messages = 30
	specs := []MachineSpec{SpecByLabel("8P"), SpecByLabel("32P-NUMA")}
	return matrixCells(DefaultPolicies(), specs, workload.Names()), sc
}

// TestDecisionDigest pins every schedule() decision of the quick matrix —
// when, on which CPU, from which task to which — to the committed golden
// file. A change that must not move the simulation leaves it alone; one
// that means to regenerates it with -update and says why. It also holds
// every cell to the wheel's horizon: no event fires from the overflow.
func TestDecisionDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 60-cell quick matrix")
	}
	cells, sc := quickMatrixCells()
	var got strings.Builder
	for _, c := range cells {
		var h, n uint64
		cfg := machineConfig(nil, c.Spec, Factory(c.Policy), sc)
		cfg.Trace = func(ev kernel.TraceEvent) { h, n = decisionDigest(h, ev), n+1 }
		m := kernel.NewMachine(cfg)
		workload.ByName(c.Load).Build(m, WorkloadParams(c.Spec, sc)).Run()
		if st := m.Stats(); st.EventsHeap != 0 {
			t.Errorf("%s: %d of %d events fired from the wheel's overflow list, want 0", c.Key(), st.EventsHeap, st.EventsFired)
		}
		fmt.Fprintf(&got, "%s %016x %d\n", c.Key(), h, n)
	}
	if *update {
		if err := os.WriteFile(decisionsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(decisionsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines := lines(string(want))
	for i, g := range lines(got.String()) {
		if i >= len(wantLines) || g != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("decision digest moved:\n got %s\nwant %s", g, w)
		}
	}
	if len(wantLines) != len(cells) {
		t.Errorf("%s has %d cells, the quick matrix %d", decisionsGolden, len(wantLines), len(cells))
	}
}

// TestCheckAllEveryEvent steps every quick-matrix cell, and the twelve
// of mq (the retired baseline the matrix skips), one event at a time and
// holds the machine to kernel.Machine.CheckAll after each event
// (Machine.Run consults its stop function between any two events).
func TestCheckAllEveryEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("steps the 60-cell quick matrix")
	}
	cells, sc := quickMatrixCells()
	cells = append(cells, matrixCells([]string{MQ}, []MachineSpec{SpecByLabel("8P"), SpecByLabel("32P-NUMA")}, workload.Names())...)
	for _, c := range cells {
		c := c
		t.Run(c.Key(), func(t *testing.T) {
			m := kernel.NewMachine(machineConfig(nil, c.Spec, Factory(c.Policy), sc))
			inst := workload.Build(c.Load, m, WorkloadParams(c.Spec, sc))
			events := 0
			m.Run(func() bool {
				if err := m.CheckAll(); err != nil {
					t.Fatalf("after event %d (t=%d): %v", events, m.Now(), err)
				}
				events++
				return inst.Done()
			})
			if !inst.Done() {
				t.Fatalf("cell incomplete after %d events", events)
			}
			if n := m.Stats().IdleTickRescues; n != 0 {
				t.Fatalf("%d idle-tick rescues", n)
			}
		})
	}
}

func lines(s string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(s))
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out
}
