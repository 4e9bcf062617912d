package server

import (
	"encoding/json"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file serves the flight recorder at GET /debug/requests: an
// net/trace-style HTML table of the last N completed compute requests
// (newest first, failed and slow rows pinned past eviction and tinted),
// with per-request drill-down (?trace=<id>) into the span tree and the
// typed algorithm counters. ?format=json serves the same data
// machine-readable.

// flightJSON is the JSON document served on /debug/requests?format=json.
type flightJSON struct {
	SlowThresholdMS float64 `json:"slow_threshold_ms"`
	// Retained is how many records the recorder holds; Count how many
	// survived the query filters (equal when no filter is set).
	Retained int                `json:"retained"`
	Count    int                `json:"count"`
	Filter   *flightFilterJSON  `json:"filter,omitempty"`
	Records  []obs.FlightRecord `json:"records"`
}

// flightFilterJSON echoes the active list filters back in the JSON view.
type flightFilterJSON struct {
	Route string  `json:"route,omitempty"`
	Model string  `json:"model,omitempty"`
	MinMS float64 `json:"min_ms,omitempty"`
}

// flightFilter narrows the /debug/requests list: exact route match,
// model/detector token match against the free-form detail, and a latency
// floor in milliseconds. Zero values pass everything.
type flightFilter struct {
	route string
	model string
	minMS float64
}

func parseFlightFilter(q url.Values) (flightFilter, error) {
	f := flightFilter{route: q.Get("route"), model: q.Get("model")}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(ms) || ms < 0 {
			return f, badRequest("invalid min_ms %q (want a non-negative number)", v)
		}
		f.minMS = ms
	}
	return f, nil
}

func (f flightFilter) active() bool { return f.route != "" || f.model != "" || f.minMS > 0 }

func (f flightFilter) match(fr obs.FlightRecord) bool {
	if f.route != "" && fr.Route != f.route {
		return false
	}
	if f.model != "" && !detailHasModel(fr.Detail, f.model) {
		return false
	}
	return fr.ElapsedMS >= f.minMS
}

// detailHasModel reports whether the record's detail names the model as a
// whole token — the detect route writes "detector=<name>", simulate and
// batch write "model=<name>", so both keys count.
func detailHasModel(detail, model string) bool {
	for _, tok := range strings.Fields(detail) {
		if tok == "model="+model || tok == "detector="+model {
			return true
		}
	}
	return false
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		writeError(w, &httpError{status: http.StatusNotFound, msg: "flight recorder disabled (FlightSize < 0)"})
		return
	}
	q := r.URL.Query()
	format := q.Get("format")
	if format != "" && format != "json" && format != "html" {
		writeError(w, badRequest("unknown format %q (want html or json)", format))
		return
	}
	filter, ferr := parseFlightFilter(q)
	if ferr != nil {
		writeError(w, ferr)
		return
	}
	if traceID := q.Get("trace"); traceID != "" {
		fr, ok := s.flight.Lookup(traceID)
		if !ok {
			writeError(w, &httpError{status: http.StatusNotFound,
				msg: fmt.Sprintf("trace %q not retained (evicted or never recorded)", traceID)})
			return
		}
		if format == "json" {
			writeJSON(w, http.StatusOK, fr)
			return
		}
		renderHTML(w, flightDetailTmpl, newFlightDetailView(fr))
		return
	}
	records := s.flight.Snapshot()
	retained := len(records)
	if filter.active() {
		kept := records[:0]
		for _, fr := range records {
			if filter.match(fr) {
				kept = append(kept, fr)
			}
		}
		records = kept
	}
	slowMS := float64(s.flight.SlowThreshold()) / float64(time.Millisecond)
	if format == "json" {
		doc := flightJSON{
			SlowThresholdMS: slowMS,
			Retained:        retained,
			Count:           len(records),
			Records:         records,
		}
		if filter.active() {
			doc.Filter = &flightFilterJSON{Route: filter.route, Model: filter.model, MinMS: filter.minMS}
		}
		writeJSON(w, http.StatusOK, doc)
		return
	}
	view := newFlightListView(records, slowMS)
	view.Retained = retained
	view.FilterDesc = filter.describe()
	renderHTML(w, flightListTmpl, view)
}

// describe renders the active filters for the HTML header line; empty when
// nothing is filtered.
func (f flightFilter) describe() string {
	var parts []string
	if f.route != "" {
		parts = append(parts, "route="+f.route)
	}
	if f.model != "" {
		parts = append(parts, "model="+f.model)
	}
	if f.minMS > 0 {
		parts = append(parts, fmt.Sprintf("min_ms=%g", f.minMS))
	}
	return strings.Join(parts, " ")
}

func renderHTML(w http.ResponseWriter, tmpl *template.Template, v any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := tmpl.Execute(w, v); err != nil {
		// Headers are gone; all we can do is log through the error path.
		_ = err
	}
}

// flightRowView is one table row of the list page.
type flightRowView struct {
	Seq       uint64
	TraceID   string
	Route     string
	Detail    string
	Start     string
	ElapsedMS float64
	Status    int
	Pinned    bool
	Error     string
	Class     string // row tint: "err", "pin" or ""
}

type flightListView struct {
	SlowMS     float64
	Retained   int
	FilterDesc string
	Records    []flightRowView
}

func newFlightListView(records []obs.FlightRecord, slowMS float64) flightListView {
	v := flightListView{SlowMS: slowMS, Records: make([]flightRowView, len(records))}
	for i, fr := range records {
		v.Records[i] = newFlightRow(fr)
	}
	return v
}

func newFlightRow(fr obs.FlightRecord) flightRowView {
	row := flightRowView{
		Seq:       fr.Seq,
		TraceID:   fr.TraceID,
		Route:     fr.Route,
		Detail:    fr.Detail,
		Start:     fr.Start.Format("15:04:05.000"),
		ElapsedMS: fr.ElapsedMS,
		Status:    fr.Status,
		Pinned:    fr.Pinned,
		Error:     fr.Error,
	}
	switch {
	case fr.Error != "" || fr.Status >= 400:
		row.Class = "err"
	case fr.Pinned:
		row.Class = "pin"
	}
	return row
}

// stageRowView is one span aggregate on the drill-down page.
type stageRowView struct {
	Name    string
	Count   int64
	TotalMS float64
	MaxMS   float64
}

type flightDetailView struct {
	R        obs.FlightRecord
	Row      flightRowView
	Stages   []stageRowView
	AlgoJSON string
}

func newFlightDetailView(fr obs.FlightRecord) flightDetailView {
	v := flightDetailView{R: fr, Row: newFlightRow(fr)}
	for _, name := range obs.SortedKeys(fr.Stages) {
		st := fr.Stages[name]
		v.Stages = append(v.Stages, stageRowView{
			Name: name, Count: st.Count, TotalMS: st.TotalMS, MaxMS: st.MaxMS,
		})
	}
	if fr.Algo != nil {
		if b, err := json.MarshalIndent(fr.Algo, "", "  "); err == nil {
			v.AlgoJSON = string(b)
		}
	}
	return v
}

const flightStyle = `<style>
body { font-family: sans-serif; margin: 1em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.2em; }
table { border-collapse: collapse; font-size: 13px; }
th, td { padding: 2px 8px; text-align: left; border-bottom: 1px solid #ddd; }
th { background: #eee; }
tr.err td { background: #fdd; }
tr.pin td { background: #ffd; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
a { text-decoration: none; color: #036; }
pre { background: #f6f6f6; padding: 8px; font-size: 12px; }
</style>`

var flightListTmpl = template.Must(template.New("flight-list").Parse(`<!DOCTYPE html>
<html><head><title>ridserve flight recorder</title>` + flightStyle + `</head><body>
<h1>ridserve flight recorder</h1>
<p>{{if .FilterDesc}}{{len .Records}} of {{.Retained}} retained requests
match <code>{{.FilterDesc}}</code> ({{len .Records}} shown, newest first);
{{else}}{{len .Records}} retained requests, newest first;{{end}}
requests slower than {{printf "%.0f" .SlowMS}} ms or failed are
<b>pinned</b> past eviction. Filter with <code>?route=</code>,
<code>?model=</code>, <code>?min_ms=</code>.
<a href="?format=json">json</a></p>
<table>
<tr><th>seq</th><th>trace</th><th>route</th><th>detail</th><th>start</th><th>elapsed ms</th><th>status</th><th>error</th></tr>
{{range .Records}}<tr class="{{.Class}}">
<td class="num">{{.Seq}}</td>
<td><a href="?trace={{.TraceID}}">{{.TraceID}}</a></td>
<td>{{.Route}}</td><td>{{.Detail}}</td><td>{{.Start}}</td>
<td class="num">{{printf "%.2f" .ElapsedMS}}</td>
<td class="num">{{.Status}}</td><td>{{.Error}}</td>
</tr>
{{end}}</table>
</body></html>
`))

var flightDetailTmpl = template.Must(template.New("flight-detail").Parse(`<!DOCTYPE html>
<html><head><title>request {{.R.TraceID}}</title>` + flightStyle + `</head><body>
<h1>request {{.R.TraceID}}</h1>
<p><a href="/debug/requests">&laquo; all requests</a> &middot;
<a href="?trace={{.R.TraceID}}&amp;format=json">json</a>{{if .R.ProfileWindow}} &middot;
<a href="/debug/hotspots">profile window {{.R.ProfileWindow}}</a>{{end}}</p>
<table>
<tr><th>seq</th><th>route</th><th>detail</th><th>start</th><th>elapsed ms</th><th>status</th><th>pinned</th><th>error</th></tr>
<tr class="{{.Row.Class}}">
<td class="num">{{.R.Seq}}</td><td>{{.R.Route}}</td><td>{{.R.Detail}}</td>
<td>{{.Row.Start}}</td><td class="num">{{printf "%.2f" .R.ElapsedMS}}</td>
<td class="num">{{.R.Status}}</td><td>{{.R.Pinned}}</td><td>{{.R.Error}}</td>
</tr></table>
{{if .Stages}}<h2>stages</h2>
<table><tr><th>stage</th><th>count</th><th>total ms</th><th>max ms</th></tr>
{{range .Stages}}<tr><td>{{.Name}}</td><td class="num">{{.Count}}</td>
<td class="num">{{printf "%.3f" .TotalMS}}</td><td class="num">{{printf "%.3f" .MaxMS}}</td></tr>
{{end}}</table>{{end}}
{{if .AlgoJSON}}<h2>algorithm counters</h2>
<pre>{{.AlgoJSON}}</pre>{{end}}
</body></html>
`))
