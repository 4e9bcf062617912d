package server

import (
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusConformance generates mixed traffic (detect, simulate, a
// client error) and runs a strict text-format (version 0.0.4) parser over
// the complete /metrics?format=prometheus exposition: HELP/TYPE pairing
// and ordering, family grouping, metric/label name alphabets, label-value
// escaping, duplicate series, histogram le-ordering, bucket monotonicity,
// the mandatory +Inf bucket and its agreement with _count.
func TestPrometheusConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := sampleTrace(t, 51, 200, 1200, 4)
	if resp, body := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("detect status = %d, body %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts, "/v1/simulate", SimulateRequest{GraphHash: tr.NetworkHash(), Initiators: []int{0}}); resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status = %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts, "/v1/detect", DetectRequest{Trace: tr, Detector: "nope"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad detector status = %d, want 400", resp.StatusCode)
	}
	// Session traffic so the session gauges appear.
	if resp, body := postJSON(t, ts, "/v1/sessions", SessionRequest{GraphHash: tr.NetworkHash(), Beta: 0.3}); resp.StatusCode != http.StatusOK {
		t.Fatalf("session create status = %d, body %s", resp.StatusCode, body)
	}

	resp, body := getBody(t, ts, "/metrics?format=prometheus")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	text := string(body)
	checkPromConformance(t, text)

	// The tentpole families must actually be present in live output.
	for _, want := range []string{
		`ridserve_algo_events_total{event="arbor_tarjan_solves"}`,
		`ridserve_algo_events_total{event="isomit_dp_cells"}`,
		`ridserve_algo_events_total{event="diffusion_runs"}`,
		`ridserve_cascade_tree_size_bucket{le="+Inf"}`,
		`ridserve_cascade_tree_depth_count`,
		"ridserve_go_goroutines ",
		"ridserve_go_heap_bytes ",
		"ridserve_go_gc_cycles_total ",
		"ridserve_sessions_active ",
		"ridserve_sessions_evicted_total ",
		"ridserve_sessions_rejected_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

var (
	promMetricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// promSeries is one parsed sample line.
type promSeries struct {
	name   string
	labels map[string]string
	value  float64
	line   string
}

// checkPromConformance parses an exposition strictly, failing the test on
// any formal violation.
func checkPromConformance(t *testing.T, text string) {
	t.Helper()
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	seenSeries := map[string]bool{}
	familyDone := map[string]bool{} // families whose sample block has ended
	lastFamily := ""
	var series []promSeries

	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition does not end with a newline")
	}
	for lineNo, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		where := func(format string, args ...any) {
			t.Errorf("line %d: %s (%q)", lineNo+1, fmt.Sprintf(format, args...), line)
		}
		if line == "" {
			where("empty line")
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promMetricNameRE.MatchString(name) {
				where("malformed HELP")
				continue
			}
			if helpSeen[name] {
				where("duplicate HELP for %s", name)
			}
			helpSeen[name] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line[len("# TYPE "):])
			if len(fields) != 2 || !promMetricNameRE.MatchString(fields[0]) {
				where("malformed TYPE")
				continue
			}
			name, typ := fields[0], fields[1]
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				where("unknown type %q", typ)
			}
			if _, dup := typeSeen[name]; dup {
				where("duplicate TYPE for %s", name)
			}
			if !helpSeen[name] {
				where("TYPE for %s precedes its HELP", name)
			}
			typeSeen[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment, legal
		}

		sr, err := parsePromSample(line)
		if err != nil {
			where("%v", err)
			continue
		}
		series = append(series, sr)
		family := promFamilyOf(sr.name, typeSeen)
		if family == "" {
			where("sample %s has no TYPE header", sr.name)
			continue
		}
		if family != lastFamily {
			if familyDone[family] {
				where("family %s is not contiguous", family)
			}
			if lastFamily != "" {
				familyDone[lastFamily] = true
			}
			lastFamily = family
		}
		key := sr.line[:strings.LastIndex(sr.line, " ")]
		if seenSeries[key] {
			where("duplicate series")
		}
		seenSeries[key] = true
	}

	if checkPromHistograms(t, series, typeSeen) == 0 {
		t.Error("no histogram families in exposition")
	}
}

// parsePromSample parses "name{label="value",...} value" with strict
// escaping rules.
func parsePromSample(line string) (promSeries, error) {
	sr := promSeries{labels: map[string]string{}, line: line}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return sr, fmt.Errorf("no value separator")
	}
	sr.name = line[:i]
	if !promMetricNameRE.MatchString(sr.name) {
		return sr, fmt.Errorf("bad metric name %q", sr.name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			if rest == "" {
				return sr, fmt.Errorf("unterminated label set")
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return sr, fmt.Errorf("label without '='")
			}
			lname := rest[:eq]
			if !promLabelNameRE.MatchString(lname) {
				return sr, fmt.Errorf("bad label name %q", lname)
			}
			rest = rest[eq+1:]
			if rest == "" || rest[0] != '"' {
				return sr, fmt.Errorf("unquoted label value for %s", lname)
			}
			val, tail, err := parsePromQuoted(rest)
			if err != nil {
				return sr, fmt.Errorf("label %s: %v", lname, err)
			}
			if _, dup := sr.labels[lname]; dup {
				return sr, fmt.Errorf("duplicate label %s", lname)
			}
			sr.labels[lname] = val
			rest = tail
			if rest != "" && rest[0] == ',' {
				rest = rest[1:]
			}
		}
	}
	if rest == "" || rest[0] != ' ' {
		return sr, fmt.Errorf("missing space before value")
	}
	valueStr := rest[1:]
	if strings.ContainsRune(valueStr, ' ') {
		// A second field would be a timestamp; this server never emits one.
		return sr, fmt.Errorf("unexpected extra field %q", valueStr)
	}
	v, err := parsePromValue(valueStr)
	if err != nil {
		return sr, err
	}
	sr.value = v
	return sr, nil
}

// parsePromQuoted consumes a double-quoted label value, enforcing that
// backslash only escapes \, " or n and that raw quotes/newlines never
// appear unescaped.
func parsePromQuoted(s string) (val, rest string, err error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			i++
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i])
			}
		case '\n':
			return "", "", fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// promFamilyOf maps a series name to its metric family: itself, or — for
// histogram/summary component series — the base name carrying the TYPE.
func promFamilyOf(name string, typeSeen map[string]string) string {
	if _, ok := typeSeen[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if typ := typeSeen[base]; typ == "histogram" || typ == "summary" {
			return base
		}
	}
	return ""
}

// checkPromHistograms verifies every histogram family: le ascending,
// cumulative buckets, +Inf present and equal to _count, and _sum present.
// Returns how many histogram series groups it saw so callers that expect
// traffic can assert the exposition wasn't empty.
func checkPromHistograms(t *testing.T, series []promSeries, typeSeen map[string]string) int {
	t.Helper()
	type hist struct {
		lastLE    float64
		lastCount float64
		buckets   int
		inf       float64
		hasInf    bool
		sum       bool
		count     float64
		hasCount  bool
	}
	hists := map[string]*hist{}
	keyOf := func(family string, labels map[string]string) string {
		var b strings.Builder
		b.WriteString(family)
		for _, name := range sortedLabelNames(labels) {
			if name == "le" {
				continue
			}
			fmt.Fprintf(&b, "|%s=%s", name, labels[name])
		}
		return b.String()
	}
	get := func(k string) *hist {
		h := hists[k]
		if h == nil {
			h = &hist{lastLE: math.Inf(-1)}
			hists[k] = h
		}
		return h
	}
	for _, sr := range series {
		family := promFamilyOf(sr.name, typeSeen)
		if typeSeen[family] != "histogram" {
			continue
		}
		k := keyOf(family, sr.labels)
		h := get(k)
		switch {
		case strings.HasSuffix(sr.name, "_bucket"):
			leStr, ok := sr.labels["le"]
			if !ok {
				t.Errorf("%s: bucket without le label", sr.line)
				continue
			}
			le, err := parsePromValue(leStr)
			if err != nil {
				t.Errorf("%s: bad le %q", sr.line, leStr)
				continue
			}
			if le <= h.lastLE {
				t.Errorf("%s: le %g not ascending after %g", k, le, h.lastLE)
			}
			if sr.value < h.lastCount {
				t.Errorf("%s: bucket count %g below previous %g (non-cumulative)", k, sr.value, h.lastCount)
			}
			h.lastLE, h.lastCount = le, sr.value
			h.buckets++
			if math.IsInf(le, 1) {
				h.inf, h.hasInf = sr.value, true
			}
		case strings.HasSuffix(sr.name, "_sum"):
			h.sum = true
		case strings.HasSuffix(sr.name, "_count"):
			h.count, h.hasCount = sr.value, true
		}
	}
	for k, h := range hists {
		if h.buckets == 0 {
			t.Errorf("histogram %s has no buckets", k)
			continue
		}
		if !h.hasInf {
			t.Errorf("histogram %s lacks a +Inf bucket", k)
		}
		if !h.sum || !h.hasCount {
			t.Errorf("histogram %s lacks _sum/_count (%v/%v)", k, h.sum, h.hasCount)
		}
		if h.hasInf && h.hasCount && h.inf != h.count {
			t.Errorf("histogram %s: +Inf bucket %g != count %g", k, h.inf, h.count)
		}
	}
	return len(hists)
}

func sortedLabelNames(labels map[string]string) []string {
	names := make([]string, 0, len(labels))
	for name := range labels {
		names = append(names, name)
	}
	// Label order in the exposition is fixed by the writer; sorting here
	// only keys the histogram map deterministically.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
