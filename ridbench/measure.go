package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// detect-inline load shape, fixed once for the host the benchmark was
// defined on (2 vCPU): inlineRate keeps ridserve's CPUs about half busy.
const (
	inlineRate = 60.0 // requests per second of the fixed-rate open loop
	// latencyLimitMS is the p99 a capacity-ladder rung must stay under.
	latencyLimitMS = 100.0
	// lateLimitMS invalidates a run whose generator handed requests to
	// its connections later than this at p99: it no longer kept to the
	// schedule. Smaller lags are charged to latency, which runs from the
	// intended send time; on a virtualized host they reach ~10 ms when the
	// hypervisor steals CPU.
	lateLimitMS = 50.0
	// The ladder's rungs are inlineRate*k/ladderStep for k = 1..ladderTop.
	ladderStep = 8
	ladderTop  = 24
	// fixedShare of the run after warm-up is the fixed-rate phase; the
	// ladder gets the rest.
	fixedShare = 0.7
	// The first 1/warmupDivisor of every run is an untimed warm-up.
	warmupDivisor = 18
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// loadRun is what a measured (untraced) or traced TCP phase produced.
type loadRun struct {
	all []sample // every request sent, for the failure count
	// timed are the requests whose latencies and throughput are reported:
	// the fixed-rate phase in the open loop, everything in a closed loop.
	timed      []sample
	start, end time.Time
	late       []time.Duration
	// open marks detect-inline's open loop.
	open     bool
	capacity float64
	rungs    []string
	// busy is ridserve's CPU time over the timed phase as a share of all
	// CPUs.
	busy float64
}

// drive runs the workload's load for dur against ridserve. With ladder
// set, detect-inline spends the time after its fixed-rate phase on the
// capacity ladder.
func drive(ctx context.Context, cl *client, srv *ridserve, in *inputs, dur time.Duration, ladder bool) (*loadRun, error) {
	run := &loadRun{}
	// Warm up first, untimed: ridserve's heap and the connections settle
	// before the first timed request.
	warm := dur / warmupDivisor
	dur -= warm
	if in.pool == nil {
		run.all = cl.closedLoop(ctx, in, connections, warm)
	} else {
		run.all = cl.openLoop(ctx, in, 0, int(inlineRate*warm.Seconds()), inlineRate).samples
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu0, _ := srv.cpuSeconds()
	setBusy := func() {
		cpu1, _ := srv.cpuSeconds()
		run.busy = ratio(cpu1-cpu0, run.end.Sub(run.start).Seconds()*float64(runtime.NumCPU()))
	}
	if in.pool == nil {
		run.timed = cl.closedLoop(ctx, in, connections, dur)
		run.all = append(run.all, run.timed...)
		run.start, run.end = timeRange(run.timed)
		setBusy()
		return run, ctx.Err()
	}
	fixedDur := dur
	if ladder {
		fixedDur = time.Duration(fixedShare * float64(dur))
	}
	run.open = true
	n := int(inlineRate * fixedDur.Seconds())
	first := len(run.all)
	fixed := cl.openLoop(ctx, in, first, n, inlineRate)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	first += n
	run.timed = fixed.samples
	run.all = append(run.all, fixed.samples...)
	run.start, run.end, run.late = fixed.start, fixed.end, fixed.late
	setBusy()
	if late := quantile(durationsMS(fixed.late), 0.99); late > lateLimitMS {
		return nil, fmt.Errorf("run invalid: the load generator fell behind its schedule (late p99 %.2f ms > %.0f ms)", late, lateLimitMS)
	}
	if !ladder {
		return run, nil
	}
	// Bisect the ladder for the highest rung that holds the limit; the
	// fixed rate is rung ladderStep.
	lo, hi := 0, ladderTop+1
	if rungPasses(fixed, inlineRate) {
		lo = ladderStep
	}
	deadline := time.Now().Add(dur - fixedDur)
	rungDur := (dur - fixedDur) / 4
	for hi-lo > 1 && time.Until(deadline) >= rungDur/2 {
		time.Sleep(100 * time.Millisecond) // let the last rung drain
		k := (lo + hi) / 2
		rate := inlineRate * float64(k) / ladderStep
		m := max(1, int(rate*rungDur.Seconds()))
		r := cl.openLoop(ctx, in, first, m, rate)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		first += m
		run.all = append(run.all, r.samples...)
		ok := rungPasses(r, rate)
		verdict := "fail"
		if ok {
			lo, verdict = k, "pass"
		} else {
			hi = k
		}
		run.rungs = append(run.rungs, fmt.Sprintf("%.1f/s:p99=%.1fms,backlog=%d,%s", rate, quantile(latenciesMS(r.samples), 0.99), r.backlog, verdict))
	}
	run.capacity = inlineRate * float64(lo) / ladderStep
	return run, nil
}

// rungPasses: no failure, p99 under the limit, and no more requests
// still waiting when the schedule ended than the rate brings in within
// the limit (a backlog the server clears in time is not growing).
func rungPasses(r openResult, rate float64) bool {
	return succeeded(r.samples) == len(r.samples) &&
		quantile(latenciesMS(r.samples), 0.99) <= latencyLimitMS &&
		float64(r.backlog) <= max(connections, rate*latencyLimitMS/1000)
}

// timeRange is the interval from the first send to the last answer.
func timeRange(ss []sample) (time.Time, time.Time) {
	if len(ss) == 0 {
		return time.Time{}, time.Time{}
	}
	lo, hi := ss[0].start, ss[0].end
	for i := range ss {
		if ss[i].start.Before(lo) {
			lo = ss[i].start
		}
		if ss[i].end.After(hi) {
			hi = ss[i].end
		}
	}
	return lo, hi
}

func succeeded(ss []sample) int {
	n := 0
	for i := range ss {
		if !ss[i].failed {
			n++
		}
	}
	return n
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].latencyMS()
	}
	return out
}

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// totals sums the checked outcomes of successful samples.
type totals struct {
	detections, events, simulations int
	f1                              []float64
	dirty, reused                   int
	arborMS                         float64
	trees, infected, heapOps        int64
	dpCells, attempts               int64
	overheadMS                      []float64
	reqBytes, resBytes              int
	errs                            map[string]int
}

func sum(ss []sample) totals {
	var t totals
	t.errs = make(map[string]int)
	for i := range ss {
		s := &ss[i]
		t.reqBytes += s.reqBytes
		t.resBytes += s.resBytes
		if s.failed {
			t.errs[s.err]++
			continue
		}
		o := &s.out
		t.detections += o.detections
		t.events += o.events
		t.simulations += o.simulations
		t.f1 = append(t.f1, o.f1...)
		t.dirty += o.dirty
		t.reused += o.reused
		t.arborMS += o.stages["arborescence"]
		if a := o.algo; a != nil {
			t.trees += a.Cascade.Trees
			t.infected += a.Cascade.InfectedNodes
			t.heapOps += a.Arbor.HeapMelds + a.Arbor.HeapPops
			t.dpCells += a.ISOMIT.DPCells
			t.attempts += a.Diffusion.Attempts
		}
		if o.elapsedMS > 0 {
			t.overheadMS = append(t.overheadMS, ms(s.latency)-o.elapsedMS)
		}
	}
	return t
}

// A closed-loop run's timed requests are split by completion time into
// up to maxWindows windows of equal length, each holding at least
// minWindow requests so that its p99 has ten samples beyond it. Latency
// and throughput are medians over the windows, which keeps a burst of host
// noise inside one window from moving the run's figures. The open loop's
// fixed-rate phase is one window.
const (
	maxWindows = 6
	minWindow  = 1000
)

type window struct {
	lat                          []float64
	requests, detections, events int
}

func windows(run *loadRun) ([]window, float64) {
	k := 1
	if !run.open {
		k = max(1, min(maxWindows, len(run.timed)/minWindow))
	}
	secs := run.end.Sub(run.start).Seconds()
	ws := make([]window, k)
	for i := range run.timed {
		s := &run.timed[i]
		w := &ws[min(k-1, int(float64(k)*s.end.Sub(run.start).Seconds()/secs))]
		w.lat = append(w.lat, s.latencyMS())
		if !s.failed {
			w.requests++
			w.detections += s.out.detections
			w.events += s.out.events
		}
	}
	return ws, secs / float64(k)
}

// overWindows is the median over the windows of f.
func overWindows(ws []window, f func(*window) float64) float64 {
	xs := make([]float64, len(ws))
	for i := range ws {
		xs[i] = f(&ws[i])
	}
	return median(xs)
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(run *loadRun, setups []float64, rssMiB float64) []metric {
	ws, secs := windows(run)
	all := sum(run.all)
	n := len(run.timed)
	winNote := fmt.Sprintf("n=%d in %.1fs", n, secs)
	if len(ws) > 1 {
		winNote = fmt.Sprintf("n=%d, median of %d windows of %.1fs", n, len(ws), secs)
	}
	p99note := winNote
	if n < 1000 {
		p99note += ", fewer than 10 samples beyond p99"
	}
	capacity := run.capacity
	capNote := fmt.Sprintf("ladder %v", run.rungs)
	if !run.open {
		capacity = overWindows(ws, func(w *window) float64 { return float64(w.requests) / secs })
		capNote = "closed loop: completed requests per second, " + winNote
	}
	if run.late != nil {
		fmt.Printf("# loadgen late p99 %.3f ms (invalid above %.0f ms)\n", quantile(durationsMS(run.late), 0.99), lateLimitMS)
	}
	return []metric{
		{"setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups))},
		{"latency_p50_ms", overWindows(ws, func(w *window) float64 { return quantile(w.lat, 0.5) }), "ms", winNote},
		{"latency_p99_ms", overWindows(ws, func(w *window) float64 { return quantile(w.lat, 0.99) }), "ms", p99note},
		{"capacity_rps", capacity, "req/s", capNote},
		{"detections_per_s", overWindows(ws, func(w *window) float64 { return float64(w.detections) / secs }), "1/s", winNote},
		{"events_per_s", overWindows(ws, func(w *window) float64 { return float64(w.events) / secs }), "1/s", winNote},
		{"success_ratio", ratio(float64(succeeded(run.all)), float64(len(run.all))), "ratio", fmt.Sprintf("%d of %d requests", succeeded(run.all), len(run.all))},
		{"server_rss_mb", rssMiB, "MiB", "ridserve VmHWM"},
		{"f1_mean", mean(all.f1), "ratio", fmt.Sprintf("over %d scored detections", len(all.f1))},
	}
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// perLayer computes the per-layer metrics of a traced run.
// ordered is run.timed in send order, as replayed.
func perLayer(run *loadRun, ordered []sample, rep *replayResult, lt layerTimes, scrapes []metricsDoc) []metric {
	t := sum(run.timed)
	lat := latenciesMS(run.timed)
	nReq := float64(len(run.timed))
	var depthMax int
	var rejected int64
	var hitRatio float64
	for _, m := range scrapes {
		depthMax = max(depthMax, m.Queue.Depth)
	}
	if len(scrapes) > 0 {
		last := scrapes[len(scrapes)-1]
		rejected, hitRatio = last.Queue.Rejected, last.Cache.HitRate
	}
	var sumLat, sumCov float64
	for i := 0; i < rep.n; i++ {
		sumLat += ms(ordered[i].latency)
		sumCov += float64(lt.covered[i]) / 1e6
	}
	late := 0.0
	if run.late != nil {
		late = quantile(durationsMS(run.late), 0.99)
	}
	det := float64(t.detections)
	return []metric{
		{"server.overhead_ms", median(t.overheadMS), "ms", "median of client latency - elapsed_ms"},
		{"server.queue_depth_max", float64(depthMax), "count", fmt.Sprintf("%d /metrics samples", len(scrapes))},
		{"server.rejected", float64(rejected), "count", ""},
		{"server.cache_hit_ratio", hitRatio, "ratio", ""},
		{"server.request_kb", ratio(float64(t.reqBytes)/1024, nReq), "KiB", "per request"},
		{"server.response_kb", ratio(float64(t.resBytes)/1024, nReq), "KiB", "per request"},
		{"trace.json_decode_ms", lt.perRequestMS("trace.json_decode", false), "ms", ""},
		{"trace.validate_ms", lt.perRequestMS("trace.validate", false), "ms", ""},
		{"trace.network_hash_ms", lt.perRequestMS("trace.network_hash", false), "ms", ""},
		{"trace.observation_decode_ms", lt.perRequestMS("trace.observation_decode", false), "ms", ""},
		{"sgraph.build_graph_ms", mean(rep.buildMS), "ms", fmt.Sprintf("%d networks", len(rep.buildMS))},
		{"cascade.snapshot_on_ms", lt.perRequestMS("cascade.snapshot_on", false), "ms", ""},
		{"cascade.components_ms", lt.perRequestMS("cascade.components", true), "ms", "standalone probe, also inside cascade.extract"},
		{"cascade.extract_ms", lt.perRequestMS("cascade.extract", false), "ms", ""},
		{"cascade.trees", ratio(float64(t.trees), det), "count", "per detection"},
		{"cascade.infected_nodes", ratio(float64(t.infected), det), "count", "per detection"},
		{"arbor.arborescence_ms", ratio(t.arborMS, det), "ms", "per detection, from stage_timings"},
		{"arbor.heap_ops", ratio(float64(t.heapOps), det), "count", "per detection"},
		{"isomit.tree_dp_ms", lt.perRequestMS("isomit.tree_dp", false), "ms", ""},
		{"isomit.dp_cells", ratio(float64(t.dpCells), det), "count", "per detection"},
		{"core.detect_ms", lt.perRequestMS("core.detect", true), "ms", "inclusive"},
		{"diffusion.run_ms", lt.perRequestMS("diffusion.run", false), "ms", ""},
		{"diffusion.attempts", ratio(float64(t.attempts), float64(t.simulations)), "count", "per simulation"},
		{"ingest.apply_us_per_event", ratio(float64(lt.self["ingest.apply"])/1e3, float64(rep.events)), "us", fmt.Sprintf("%d events", rep.events)},
		{"ingest.detect_ms", lt.perRequestMS("ingest.detect", false), "ms", ""},
		{"ingest.reuse_ratio", ratio(float64(t.reused), float64(t.dirty+t.reused)), "ratio", ""},
		{"loadgen.late_p99_ms", late, "ms", ""},
		{"trace_run.unattributed_ratio", ratio(sumLat-sumCov, sumLat), "ratio", fmt.Sprintf("over %d replayed requests, client p50 %.3f ms", rep.n, quantile(lat, 0.5))},
		{"trace_run.overhead_ratio", ratio(float64(rep.onNS-rep.offNS), float64(rep.offNS)), "ratio", fmt.Sprintf("traced %.1f ms vs untraced %.1f ms", float64(rep.onNS)/1e6, float64(rep.offNS)/1e6)},
	}
}

// orderedByStart returns the samples sorted by send time, the order the
// replay uses.
func orderedByStart(ss []sample) []sample {
	out := append([]sample(nil), ss...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].start.Before(out[b].start) })
	return out
}
