package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// baselineSeed is the seed whose simulated results are on record.
const baselineSeed = 42

// baselineFile is benchmark/baseline.json: every cell's seed-42 digest
// and the values of the latest full run on the sizing host. The digests
// turn "did the simulation change?" into a lookup; the values are a
// record, never a gate — host time is compared run against run.
type baselineFile struct {
	Seed    int64                         `json:"seed"`
	Host    string                        `json:"host"`
	Model   string                        `json:"model"`
	Digests map[string]map[string]string  `json:"digests"`
	Latest  map[string]map[string]float64 `json:"latest"`
}

func baselinePath(root string) string { return filepath.Join(root, "benchmark", "baseline.json") }

func loadBaseline(root string) (*baselineFile, error) {
	raw, err := os.ReadFile(baselinePath(root))
	if errors.Is(err, os.ErrNotExist) {
		return &baselineFile{}, nil // every seed-42 cell then reads sim_changed
	}
	if err != nil {
		return nil, err
	}
	var b baselineFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", baselinePath(root), err)
	}
	return &b, nil
}

// writeBaseline records a full seed-42 run as the new reference.
func writeBaseline(root string, r *report) error {
	host, _ := os.Hostname() // a label only; empty is fine
	b := baselineFile{
		Seed:    r.Seed,
		Host:    fmt.Sprintf("%s: %d CPUs, %s", host, r.NumCPU, r.GoVersion),
		Model:   modelNote,
		Digests: map[string]map[string]string{},
		Latest:  map[string]map[string]float64{},
	}
	for _, w := range r.Workloads {
		if w.OpsFailed != 0 {
			return fmt.Errorf("not recording a baseline: %s had %d failed operations", w.Name, w.OpsFailed)
		}
		b.Digests[w.Name] = map[string]string{}
		for _, c := range w.Cells {
			b.Digests[w.Name][c.Key] = c.Digest
		}
		b.Latest[w.Name] = map[string]float64{}
		for name, s := range w.EndToEnd {
			b.Latest[w.Name][name] = s.Value
		}
		for name, v := range w.PerLayer {
			b.Latest[w.Name][name] = v
		}
	}
	if r.PerLayer != nil {
		b.Latest["direct_drive"] = r.PerLayer
	}
	js, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(baselinePath(root), append(js, '\n'), 0o644)
}

// sweepCell is what BENCH_sweep.json records of one matrix cell's
// simulated result.
type sweepCell struct {
	Ops        uint64
	Seconds    float64
	Throughput float64
}

// loadSweepCells reads the committed quick-matrix results (read-only),
// keyed like cell.key. A checkout without the file skips the cross-check.
func loadSweepCells(root string) (map[string]sweepCell, error) {
	path := filepath.Join(root, "BENCH_sweep.json")
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f struct {
		Seed      int64 `json:"seed"`
		Workloads []struct {
			Workload   string  `json:"workload"`
			Policy     string  `json:"policy"`
			Spec       string  `json:"spec"`
			Ops        uint64  `json:"ops"`
			Seconds    float64 `json:"seconds"`
			Throughput float64 `json:"throughput"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Seed != baselineSeed {
		return nil, nil
	}
	cells := map[string]sweepCell{}
	for _, w := range f.Workloads {
		cells[w.Workload+"-"+w.Policy+"-"+w.Spec] = sweepCell{w.Ops, w.Seconds, w.Throughput}
	}
	return cells, nil
}
