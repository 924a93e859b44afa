package stats

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	for _, v := range []uint64{4, 2, 6} {
		d.Observe(v)
	}
	if d.Count() != 3 {
		t.Fatalf("count = %d, want 3", d.Count())
	}
	if d.Min() != 2 || d.Max() != 6 {
		t.Fatalf("min/max = %d/%d, want 2/6", d.Min(), d.Max())
	}
	if d.Mean() != 4 {
		t.Fatalf("mean = %v, want 4", d.Mean())
	}
}

func TestDistEmpty(t *testing.T) {
	var d Dist
	if d.Mean() != 0 || d.Min() != 0 || d.Max() != 0 {
		t.Fatal("empty dist should report zeros")
	}
}

func TestDistZeroSample(t *testing.T) {
	var d Dist
	d.Observe(5)
	d.Observe(0)
	if d.Min() != 0 {
		t.Fatalf("min = %d, want 0", d.Min())
	}
}

func TestDistMeanMatchesNaive(t *testing.T) {
	f := func(samples []uint16) bool {
		var d Dist
		var sum uint64
		for _, s := range samples {
			d.Observe(uint64(s))
			sum += uint64(s)
		}
		if len(samples) == 0 {
			return d.Mean() == 0
		}
		want := float64(sum) / float64(len(samples))
		diff := d.Mean() - want
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRender(t *testing.T) {
	var d Dist
	d.Observe(100)
	d.Observe(201)
	r := Registry{Lines: []Line{
		SummaryLine("cycles_per_sched", d.Summary),
		SummaryLine("empty", Summary{}),
		CounterLine("recalcs", 2),
		CounterLine("sched_calls", 10),
	}}
	want := "cycles_per_sched count=2 mean=150.5 min=100 max=201\n" +
		"empty count=0 mean=0.0 min=0 max=0\n" +
		"recalcs 2\n" +
		"sched_calls 10\n"
	if got := r.Render(); got != want {
		t.Fatalf("Render = %q, want %q", got, want)
	}
	if l, ok := r.Lookup("recalcs"); !ok || l.IsSummary || l.Value != 2 {
		t.Fatalf("Lookup(recalcs) = %+v, %v", l, ok)
	}
	if l, ok := r.Lookup("cycles_per_sched"); !ok || !l.IsSummary || l.Summary.Max() != 201 {
		t.Fatalf("Lookup(cycles_per_sched) = %+v, %v", l, ok)
	}
	if (&Registry{}).Render() != "" {
		t.Fatal("an empty registry renders text")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Table 2: compile time", "Scheduler", "Time")
	tab.AddRow("Current - UP", "6:41.41")
	tab.AddRow("ELSC - UP", "6:38.68")
	out := tab.Render()
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "Current - UP  6:41.41") {
		t.Fatalf("misaligned row: %q", out)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tab.NumRows())
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tab := NewTable("", "a")
	tab.AddRow(0.33333)
	if !strings.Contains(tab.Render(), "0.33") {
		t.Fatalf("float not rounded: %q", tab.Render())
	}
}

func TestFormatDuration(t *testing.T) {
	hz := uint64(400_000_000)
	cases := []struct {
		cycles uint64
		want   string
	}{
		{0, "0:00.00"},
		{hz, "0:01.00"},
		{hz * 61, "1:01.00"},
		{hz*401 + hz*41/100, "6:41.41"}, // the paper's Table 2 headline figure
	}
	for _, c := range cases {
		if got := FormatDuration(c.cycles, hz); got != c.want {
			t.Errorf("FormatDuration(%d) = %q, want %q", c.cycles, got, c.want)
		}
	}
}

func TestFormatDurationZeroHz(t *testing.T) {
	if got := FormatDuration(100, 0); got != "0:00.00" {
		t.Fatalf("got %q", got)
	}
}

func TestApproxPercentileEmpty(t *testing.T) {
	var d Dist
	if d.ApproxPercentile(0.5) != 0 {
		t.Fatal("empty dist percentile should be 0")
	}
}

func TestApproxPercentileBounds(t *testing.T) {
	var d Dist
	for _, v := range []uint64{1, 2, 4, 8, 1000} {
		d.Observe(v)
	}
	if got := d.ApproxPercentile(0); got != 1 {
		t.Fatalf("p0 = %d, want min 1", got)
	}
	if got := d.ApproxPercentile(1); got != 1000 {
		t.Fatalf("p100 = %d, want max 1000", got)
	}
}

func TestApproxPercentileWithinFactorTwo(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 10 {
			return true
		}
		var d Dist
		sorted := make([]uint64, len(raw))
		for i, v := range raw {
			val := uint64(v) + 1
			d.Observe(val)
			sorted[i] = val
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0.5, 0.9, 0.99} {
			// Nearest rank, as ApproxPercentile counts it: the
			// ceil(q·n)-th smallest value.
			idx := int(math.Ceil(q*float64(len(sorted)))) - 1
			exact := sorted[idx]
			got := d.ApproxPercentile(q)
			// Bucket-limited accuracy: within a factor of two, with
			// slack for interpolation at bucket edges.
			if got > exact*2+2 || exact > got*2+2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestApproxPercentileMonotone(t *testing.T) {
	var d Dist
	for i := uint64(1); i <= 1000; i++ {
		d.Observe(i)
	}
	last := uint64(0)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		v := d.ApproxPercentile(q)
		if v < last {
			t.Fatalf("percentile not monotone at q=%v: %d < %d", q, v, last)
		}
		last = v
	}
}

func TestTableJSONRoundTrip(t *testing.T) {
	tab := NewTable("Demo", "A", "B")
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	out, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title   string     `json:"title"`
		Headers []string   `json:"headers"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != "Demo" || len(got.Headers) != 2 || len(got.Rows) != 2 {
		t.Fatalf("bad JSON shape: %s", out)
	}
	if got.Rows[0][1] != "2.50" {
		t.Fatalf("float cell = %q, want the renderer's %%.2f format", got.Rows[0][1])
	}
}

func TestTableRowsIsACopy(t *testing.T) {
	tab := NewTable("Demo", "A")
	tab.AddRow("v")
	rows := tab.Rows()
	rows[0][0] = "mutated"
	if tab.Rows()[0][0] != "v" {
		t.Fatal("Rows exposed internal state")
	}
}
