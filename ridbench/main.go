// Command ridbench is the repository's end-to-end benchmark. It boots
// ridserve as its own process on loopback, drives one workload over real
// TCP from this single process (at most two connections), checks every
// response against an answer computed in-process from the same generated
// inputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// instead records the requests, replays them in-process through the public
// functions ridserve calls, timing each call as a span, and reports the
// per-layer metrics. Build and run it through run.sh from the repository
// root:
//
//	bash ridbench/run.sh --workload detect-inline --seed 1 --seconds 36 --trace 0
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times a run launches and primes ridserve; setup_s
// is the median, and the last launch serves the measurement.
const setupRuns = 9

func main() {
	var (
		workload = flag.String("workload", "", "detect-inline, forensics-batch or session-stream")
		seed     = flag.Uint64("seed", 1, "workload seed: the inputs are a pure function of it")
		seconds  = flag.Int("seconds", 30, "measured seconds")
		traced   = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		bin      = flag.String("ridserve", "", "ridserve binary")
		out      = flag.String("out", ".bench_build", "directory for ridserve's log and the span dump")
	)
	flag.Parse()
	if *bin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "ridbench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, workload string, seed uint64, dur time.Duration, traced bool, bin, out string) error {
	genStart := time.Now()
	in, err := makeInputs(workload, seed)
	if err != nil {
		return err
	}
	fmt.Printf("# ridbench workload=%s seed=%d seconds=%.0f trace=%v inputs=%.2fs\n", workload, seed, dur.Seconds(), traced, time.Since(genStart).Seconds())
	// Collect the generation garbage now rather than during the
	// measurement, where it would compete with ridserve for the CPUs.
	debug.FreeOSMemory()

	var setups []float64
	var srv *ridserve
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	logPath := filepath.Join(out, "ridserve-"+workload+".log")
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		s, err := launch(ctx, bin, logPath)
		if err != nil {
			return err
		}
		if err := prime(ctx, s, in); err != nil {
			s.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			s.stop()
		} else {
			srv = s
		}
	}

	cl := newClient(srv.addr)
	defer cl.close()
	var (
		load     *loadRun
		metrics  []metric
		replayOK = true
	)
	if !traced {
		if load, err = drive(ctx, cl, srv, in, dur, true); err != nil {
			return err
		}
	} else {
		stopScrape := make(chan struct{})
		scraped := make(chan []metricsDoc, 1)
		go func() { scraped <- cl.sampleMetrics(ctx, stopScrape) }()
		load, err = drive(ctx, cl, srv, in, dur/2, false)
		close(stopScrape)
		scrapes := <-scraped
		if err != nil {
			return err
		}
		if m, err := cl.metrics(ctx); err == nil {
			scrapes = append(scrapes, m)
		}
		ordered := orderedByStart(load.timed)
		rep, err := replayTrace(ctx, in, ordered, ridservePar(ctx, cl), dur/2)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ridbench:", err)
			replayOK = false
			rep = &replayResult{}
		}
		lt := analyze(rep.spans, rep.n)
		metrics = perLayer(load, ordered, rep, lt, scrapes)
		printShares(lt)
		if path, err := dumpSpans(out, workload, seed, rep.spans); err == nil {
			fmt.Printf("# spans: %s\n", path)
		} else {
			fmt.Fprintln(os.Stderr, "ridbench: span dump:", err)
		}
	}
	if err := srv.alive(); err != nil {
		return err
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	if !traced {
		metrics = endToEnd(load, setups, rss)
	}
	stamp(ctx, cl, srv, load.busy)

	t := sum(load.all)
	for e, n := range t.errs {
		fmt.Printf("# failed x%d: %s\n", n, e)
	}
	for _, m := range metrics {
		fmt.Printf("%-30s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	failed := len(load.all) - succeeded(load.all)
	result := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   failed == 0 && replayOK,
		Attempted: len(load.all),
		Failed:    failed,
		Metrics:   make(map[string]map[string]any, len(metrics)),
	}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		result.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// prime sends the workload's priming calls, in order, on a fresh
// connection, so every network it uses is in ridserve's graph cache.
func prime(ctx context.Context, s *ridserve, in *inputs) error {
	c := newClient(s.addr)
	defer c.close()
	for i := range in.prime {
		if smp := c.exchange(ctx, &in.prime[i], in.prime[i].path); smp.failed {
			return fmt.Errorf("priming: %s", smp.err)
		}
	}
	return nil
}

// ridservePar is ridserve's GOMAXPROCS, which sets its default pipeline
// parallelism; the replay mirrors it.
func ridservePar(ctx context.Context, cl *client) int {
	if m, err := cl.metrics(ctx); err == nil && m.Build.GOMAXPROCS > 0 {
		return m.Build.GOMAXPROCS
	}
	return runtime.GOMAXPROCS(0)
}

// stamp prints the host and configuration the run measured.
func stamp(ctx context.Context, cl *client, srv *ridserve, busy float64) {
	m, _ := cl.metrics(ctx)
	fmt.Printf("# host nproc=%d cpu=%q bench_gomaxprocs=%d bench_go=%s ridserve_gomaxprocs=%d ridserve_go=%s source=%s\n",
		runtime.NumCPU(), cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), m.Build.GOMAXPROCS, m.Build.GoVersion, sourceID())
	fmt.Printf("# ridserve flags=%q cpu_busy=%.2f (ridserve CPU share of all CPUs over the timed phase)\n", strings.Join(srv.cmd.Args[1:], " "), busy)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceID names the measured source: the git commit when the checkout is
// a git work tree, else a hash of its Go sources and module files.
func sourceID() string {
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		// Look for a repository in the checkout only, not above it.
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		return "git:" + strings.TrimSpace(string(out))
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if ext := filepath.Ext(path); !d.IsDir() && (ext == ".go" || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return "src:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// printShares prints each layer's share of the traced requests' total
// self time, largest first.
func printShares(lt layerTimes) {
	var total int64
	names := make([]string, 0, len(lt.self))
	for name, self := range lt.self {
		if name != "cascade.components" {
			total += self
			names = append(names, name)
		}
	}
	sort.Slice(names, func(a, b int) bool { return lt.self[names[a]] > lt.self[names[b]] })
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", name, 100*ratio(float64(lt.self[name]), float64(total))))
	}
	fmt.Printf("# self-time shares: %s\n", strings.Join(parts, " "))
}

// dumpSpans writes the traced pass's spans as JSON lines.
func dumpSpans(dir, workload string, seed uint64, spans []span) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range spans {
		_ = enc.Encode(map[string]any{"req": sp.req, "parent": sp.parent, "name": sp.name, "probe": sp.probe, "start_ns": sp.start, "end_ns": sp.end})
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
