package obs

import (
	"strings"
	"testing"
)

func TestEscapeLabelValue(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`plain`, `plain`},
		{`RID(0.3)`, `RID(0.3)`},
		{"quote\"back\\nl\n", `quote\"back\\nl\n`},
		{`\`, `\\`},
	} {
		if got := EscapeLabelValue(tc.in); got != tc.want {
			t.Errorf("EscapeLabelValue(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestPromWriterHistogram(t *testing.T) {
	var b strings.Builder
	w := NewPromWriter(&b)
	w.Header("x_seconds", "help text", "histogram")
	w.Histogram("x_seconds", []PromLabel{{Name: "op", Value: `a"b`}},
		[]float64{0.001, 0.005}, []int64{1, 3, 4}, 0.25, 4)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_seconds help text
# TYPE x_seconds histogram
x_seconds_bucket{op="a\"b",le="0.001"} 1
x_seconds_bucket{op="a\"b",le="0.005"} 3
x_seconds_bucket{op="a\"b",le="+Inf"} 4
x_seconds_sum{op="a\"b"} 0.25
x_seconds_count{op="a\"b"} 4
`
	if b.String() != want {
		t.Fatalf("histogram rendering mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestPromWriterSamples(t *testing.T) {
	var b strings.Builder
	w := NewPromWriter(&b)
	w.Header("up", "1 when up.", "gauge")
	w.Sample("up", nil, 1)
	w.IntSample("requests_total", []PromLabel{{Name: "route", Value: "detect"}, {Name: "status", Value: "200"}}, 12)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP up 1 when up.
# TYPE up gauge
up 1
requests_total{route="detect",status="200"} 12
`
	if b.String() != want {
		t.Fatalf("sample rendering mismatch:\ngot:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}
