package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// compareFiles prints, per workload x end-to-end metric, both runs'
// medians and quartiles, the issue's regression bound (metricDef.regress),
// and a verdict:
//
//	same        B's value is within the bound of A's
//	worse       B's value is worse than A's by more than the bound
//	better      B's value is better than A's by more than the bound
//	unresolved  the runs' spread is wider than the bound and their
//	            samples overlap, so the difference cannot be called
//
// It exits 1 if any row is worse or unresolved, any operation failed, or
// a cell's digest differs between the two files.
func compareFiles(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err == nil {
		var b *report
		if b, err = readReport(pathB); err == nil {
			return compareReports(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func compareReports(a, b *report) int {
	bad := 0
	fmt.Printf("%-14s %-13s %12s %23s %12s %23s %7s %6s  %s\n",
		"workload", "metric", "A", "A q1..q3", "B", "B q1..q3", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			bound := d.regressBound(wa.Name)
			v := verdict(sa, sb, bound)
			if v == "worse" || v == "unresolved" {
				bad++
			}
			fmt.Printf("%-14s %-13s %12.6g %10.5g..%-10.5g %12.6g %10.5g..%-10.5g %+6.1f%% %5.0f%%  %s\n",
				wa.Name, d.name, sa.Value, sa.Q1, sa.Q3, sb.Value, sb.Q1, sb.Q3,
				100*(sb.Value/sa.Value-1), 100*bound, v)
		}
		if wa.OpsFailed != 0 || wb.OpsFailed != 0 {
			bad++
			fmt.Printf("%-14s ops failed: A %d of %d, B %d of %d\n", wa.Name, wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted)
		}
		if a.Seed != b.Seed || a.Smoke != b.Smoke {
			continue // different inputs: digests are not comparable
		}
		digests := map[string]string{}
		for _, c := range wa.Cells {
			digests[c.Key] = c.Digest
		}
		for _, c := range wb.Cells {
			if digests[c.Key] != c.Digest {
				bad++
				fmt.Printf("%-14s cell %s: digest differs between A and B\n", wa.Name, c.Key)
			}
		}
	}
	if bad != 0 {
		return 1
	}
	return 0
}

// verdict applies the bound to two runs of a lower-is-better metric.
func verdict(a, b summary, bound float64) string {
	spread := a.Q3 - a.Q1
	if s := b.Q3 - b.Q1; s > spread {
		spread = s
	}
	overlap := slices.Min(a.Samples) <= slices.Max(b.Samples) && slices.Min(b.Samples) <= slices.Max(a.Samples)
	delta := b.Value/a.Value - 1
	switch {
	case spread/a.Median > bound && overlap:
		return "unresolved"
	case delta > bound:
		return "worse"
	case delta < -bound:
		return "better"
	}
	return "same"
}
