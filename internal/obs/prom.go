package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromLabel is one name="value" pair on a Prometheus sample.
type PromLabel struct {
	Name, Value string
}

// PromExemplar is an OpenMetrics exemplar attached to one histogram
// bucket: the labelset (conventionally {trace_id="..."}), the observed
// value, and the observation time in unix seconds (0 omits the
// timestamp). A zero Labels slice means "no exemplar".
type PromExemplar struct {
	Labels []PromLabel
	Value  float64
	TS     float64
}

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4): HELP/TYPE headers, escaped label values, histogram bucket
// series. Errors are sticky — check Err once after the last write.
//
// In OpenMetrics mode (NewOpenMetricsWriter) it renders the OpenMetrics
// 1.0 text format instead: counter family names drop the _total suffix in
// metadata (samples keep it), families with a recognized unit suffix get a
// # UNIT line (TYPE → UNIT → HELP, the spec's ordering), histogram bucket
// lines may carry exemplars, and the exposition ends with # EOF.
type PromWriter struct {
	w   io.Writer
	om  bool
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// NewOpenMetricsWriter wraps w in OpenMetrics 1.0 mode.
func NewOpenMetricsWriter(w io.Writer) *PromWriter { return &PromWriter{w: w, om: true} }

// Err returns the first write error, if any.
func (p *PromWriter) Err() error { return p.err }

func (p *PromWriter) printf(s string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, s)
}

// Header writes the metadata lines for a metric family. typ is one of
// "counter", "gauge", "histogram". Prometheus mode writes HELP then TYPE
// under the full name; OpenMetrics mode writes TYPE, UNIT (when the family
// name carries a recognized unit suffix), then HELP under the family name
// — for counters that is the sample name minus its _total suffix.
func (p *PromWriter) Header(name, help, typ string) {
	var b strings.Builder
	if p.om {
		family := name
		if typ == "counter" {
			family = strings.TrimSuffix(name, "_total")
		}
		b.WriteString("# TYPE ")
		b.WriteString(family)
		b.WriteByte(' ')
		b.WriteString(typ)
		b.WriteByte('\n')
		if unit := unitSuffix(family); unit != "" {
			b.WriteString("# UNIT ")
			b.WriteString(family)
			b.WriteByte(' ')
			b.WriteString(unit)
			b.WriteByte('\n')
		}
		b.WriteString("# HELP ")
		b.WriteString(family)
		b.WriteByte(' ')
		b.WriteString(escapeHelp(help))
		b.WriteByte('\n')
		p.printf(b.String())
		return
	}
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(escapeHelp(help))
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
	p.printf(b.String())
}

// unitSuffix maps a family-name suffix to the OpenMetrics unit it implies.
func unitSuffix(family string) string {
	switch {
	case strings.HasSuffix(family, "_seconds"):
		return "seconds"
	case strings.HasSuffix(family, "_bytes"):
		return "bytes"
	case strings.HasSuffix(family, "_ratio"):
		return "ratio"
	}
	return ""
}

// EOF terminates an OpenMetrics exposition. No-op in Prometheus mode.
func (p *PromWriter) EOF() {
	if p.om {
		p.printf("# EOF\n")
	}
}

// Sample writes one sample line: name{labels} value.
func (p *PromWriter) Sample(name string, labels []PromLabel, value float64) {
	var b strings.Builder
	b.WriteString(name)
	writeLabels(&b, labels)
	b.WriteByte(' ')
	b.WriteString(formatValue(value))
	b.WriteByte('\n')
	p.printf(b.String())
}

// IntSample is Sample for integer-valued counters and gauges, avoiding
// float formatting of large exact counts.
func (p *PromWriter) IntSample(name string, labels []PromLabel, value int64) {
	var b strings.Builder
	b.WriteString(name)
	writeLabels(&b, labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(value, 10))
	b.WriteByte('\n')
	p.printf(b.String())
}

// Histogram writes a full histogram family entry under the shared labels:
// one _bucket series per upper bound (cumulative counts, +Inf last), then
// _sum and _count. bounds and buckets must be parallel, with buckets
// carrying one extra trailing element for +Inf; buckets must already be
// cumulative and end at the observation count.
func (p *PromWriter) Histogram(name string, labels []PromLabel, bounds []float64, buckets []int64, sum float64, count int64) {
	p.HistogramEx(name, labels, bounds, buckets, sum, count, nil)
}

// HistogramEx is Histogram with optional per-bucket exemplars, parallel to
// the bucket slice (index len(bounds) is the +Inf bucket). An exemplar
// with no labels is skipped. Exemplars render only in OpenMetrics mode —
// the Prometheus 0.0.4 text format has no syntax for them.
func (p *PromWriter) HistogramEx(name string, labels []PromLabel, bounds []float64, buckets []int64, sum float64, count int64, exemplars []PromExemplar) {
	ls := make([]PromLabel, len(labels), len(labels)+1)
	copy(ls, labels)
	for i, bound := range bounds {
		withLE := append(ls, PromLabel{Name: "le", Value: formatValue(bound)})
		p.bucketLine(name+"_bucket", withLE, buckets[i], exemplarAt(exemplars, i))
	}
	withInf := append(ls, PromLabel{Name: "le", Value: "+Inf"})
	p.bucketLine(name+"_bucket", withInf, buckets[len(buckets)-1], exemplarAt(exemplars, len(bounds)))
	p.Sample(name+"_sum", labels, sum)
	p.IntSample(name+"_count", labels, count)
}

func exemplarAt(exemplars []PromExemplar, i int) *PromExemplar {
	if i >= len(exemplars) || len(exemplars[i].Labels) == 0 {
		return nil
	}
	return &exemplars[i]
}

// bucketLine writes one _bucket sample, appending the exemplar in
// OpenMetrics mode: ` # {trace_id="..."} value timestamp`.
func (p *PromWriter) bucketLine(name string, labels []PromLabel, value int64, ex *PromExemplar) {
	var b strings.Builder
	b.WriteString(name)
	writeLabels(&b, labels)
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(value, 10))
	if p.om && ex != nil {
		b.WriteString(" # ")
		b.WriteByte('{')
		for i, l := range ex.Labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(EscapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
		b.WriteByte(' ')
		b.WriteString(formatValue(ex.Value))
		if ex.TS > 0 {
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(ex.TS, 'f', 3, 64))
		}
	}
	b.WriteByte('\n')
	p.printf(b.String())
}

func writeLabels(b *strings.Builder, labels []PromLabel) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(EscapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a float the way Prometheus expects: shortest exact
// decimal, with infinities as +Inf/-Inf and NaN as NaN.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// EscapeLabelValue escapes a label value per the text format: backslash,
// double quote and newline.
func EscapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes are legal).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 4)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// SortedKeys returns the map's keys in sorted order — exposition must be
// deterministic for golden tests and diff-friendly scrapes.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
