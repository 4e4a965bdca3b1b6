// Command perfbench is the repository's end-to-end benchmark: it starts
// a fresh timeprintd process, drives one named workload against it from
// this single load-generator process, checks every answer, and prints
// the end-to-end metrics. With -trace 1 it instead replays the same
// seeded inputs through each layer's public functions in-process and
// prints the per-layer metrics. See README.md for the workloads and
// metrics, and run.sh for the build.
//
//	perfbench -daemon timeprintd -workload ingest -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one traffic mix: how to warm a fresh daemon, how to
// drive it, and how to replay its ops in-process.
type workload struct {
	name string
	geom geometry
	// preload fills the store before the daemon starts (forensics).
	preload bool
	warm    func(*bench, *client, *daemon) error
	drive   func(*bench, *client, *daemon, time.Duration) (*runResult, error)
	ops     func(*bench, int) ([]replayOp, error)
	// replayOps is the traced replay's fixed op count.
	replayOps int
}

var workloads = []*workload{
	{name: "ingest", geom: geomPaper, warm: warmIngest, drive: driveIngest, ops: ingestOps, replayOps: 48},
	{name: "postmortem", geom: geomPaper, warm: warmPostmortem, drive: drivePostmortem, ops: postmortemOps, replayOps: 200},
	{name: "forensics", geom: geomStore, preload: true, warm: warmForensics, drive: driveForensics, ops: forensicsOps, replayOps: 300},
}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string
	out      string
}

// setUps is how many times an end-to-end run launches and warms a
// daemon; setup_s is the median.
const setUps = 7

// report is the result line: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, postmortem or forensics")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&cfg.daemon, "daemon", ".bench_build/bin/timeprintd", "timeprintd binary")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run state and span files")
	flag.Parse()
	cfg.trace = trace == 1
	// The generator sends load from at most two goroutines; it never
	// needs more processors than the box has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	rep, table, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Print(table)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, postmortem or forensics)", name)
}

func run(cfg config) (*report, string, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, "", err
	}
	if cfg.seconds < 1 {
		return nil, "", errors.New("-seconds must be at least 1")
	}
	if _, err := os.Stat(cfg.daemon); err != nil {
		return nil, "", fmt.Errorf("daemon binary: %w", err)
	}
	dir, err := filepath.Abs(filepath.Join(cfg.out, "run", fmt.Sprintf("%s-seed%d-%d", w.name, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")

	b := &bench{seed: cfg.seed}
	if b.enc, err = w.geom.build(); err != nil {
		return nil, "", err
	}
	if w.preload {
		if err := preloadStore(b, storeDir); err != nil {
			return nil, "", fmt.Errorf("preload: %w", err)
		}
	}

	setups := setUps
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	var d *daemon
	var c *client
	for i := 0; i < setups; i++ {
		if d, err = startDaemon(cfg.daemon, storeDir); err != nil {
			return nil, "", err
		}
		c = newClient(d.httpAddr)
		if err := w.warm(b, c, d); err != nil {
			c.close()
			return nil, "", errors.Join(fmt.Errorf("warm-up: %w", err), d.stop())
		}
		setupS = append(setupS, time.Since(d.launched).Seconds())
		if i < setups-1 {
			c.close()
			if err := d.stop(); err != nil {
				return nil, "", err
			}
		}
	}

	res, before, after, rss, err := measure(w, b, c, d, time.Duration(cfg.seconds)*time.Second)
	c.close()
	if err = errors.Join(err, d.stop()); err != nil {
		return nil, "", err
	}
	rep := &report{Correct: res.wrong == 0, Attempted: res.attempted, Failed: res.failed}
	if rep.Attempted < 1 {
		return nil, "", errors.New("no op completed in the measured window")
	}

	var metrics map[string]metric
	if cfg.trace {
		metrics, err = traced(cfg, w, b, dir, storeDir, res, before, after)
		if err != nil {
			return nil, "", err
		}
	} else {
		metrics = endToEnd(res, setupS, rss)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, "", fmt.Errorf("metric %s has no value (%v)", name, m.Value)
		}
	}
	rep.Metrics = metrics
	return rep, renderTable(w.name, cfg, res, metrics), nil
}

// measure drives the workload for dur and scrapes the daemon's
// counters around the window.
func measure(w *workload, b *bench, c *client, d *daemon, dur time.Duration) (res *runResult, before, after map[string]int64, rssMB float64, err error) {
	if before, err = c.counters(); err != nil {
		return
	}
	if res, err = w.drive(b, c, d, dur); err != nil {
		return
	}
	if after, err = c.counters(); err != nil {
		return
	}
	rssMB, err = d.peakRSSMB()
	return
}

// endToEnd computes the user-visible metrics of an untraced run.
func endToEnd(res *runResult, setupS []float64, rssMB float64) map[string]metric {
	lat := primaryLatencies(res)
	p50, _ := percentile(lat, 0.50)
	p99, windows := windowedP99(res.primary)
	secs := res.elapsed.Seconds()
	return map[string]metric{
		"setup_s":     {Value: median(setupS), Unit: "s", samples: len(setupS)},
		"ops_per_s":   {Value: float64(res.ops) / secs, Unit: "1/s", samples: res.ops},
		"tc_per_s":    {Value: float64(res.tc) / secs, Unit: "1/s", samples: res.tc},
		"p50_ms":      {Value: p50, Unit: "ms", samples: len(lat)},
		"p99_ms":      {Value: p99, Unit: "ms", samples: len(lat), note: fmt.Sprintf("median of %d windows", windows)},
		"rss_peak_mb": {Value: rssMB, Unit: "MB", samples: 1},
	}
}

// traced runs the lockstep replays, writes the spans, and computes the
// per-layer metrics.
func traced(cfg config, w *workload, b *bench, dir, storeDir string, res *runResult, before, after map[string]int64) (map[string]metric, error) {
	if !w.preload {
		storeDir = filepath.Join(dir, "replay")
	}
	tr := newTracer()
	trun, plain, st, err := runReplays(w, b, tr, storeDir, w.replayOps)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(tr.spans), path)
	return perLayer(layerInput{
		spans: tr.spans, traced: trun, plain: plain, before: before, after: after, daemon: res,
		bytesPerTC: float64(st.Bytes) / float64(st.Records*frameEntries),
	}), nil
}

// renderTable prints every metric with its unit and sample count, plus
// the figures that are not result metrics: the error rate and, for
// forensics, the export and paced-writer latencies.
func renderTable(name string, cfg config, res *runResult, metrics map[string]metric) string {
	var b strings.Builder
	mode := "end-to-end"
	if cfg.trace {
		mode = "traced per-layer"
	}
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%d (%s)\n", name, cfg.seed, cfg.seconds, mode)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(&b, "  %-26s %14.4f %-12s n=%-8d %s\n", n, m.Value, m.Unit, m.samples, m.note)
	}
	fmt.Fprintf(&b, "  %-26s %14.6f %-12s n=%-8d failed=%d wrong=%d\n", "error_rate",
		float64(res.failed)/float64(res.attempted), "ratio", res.attempted, res.failed, res.wrong)
	for _, x := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"export_p50_ms", res.export, 0.50}, {"export_p99_ms", res.export, 0.99},
		{"write_p50_ms", res.write, 0.50}, {"client.lag_p50_ms", res.lag, 0.50},
	} {
		if len(x.xs) == 0 {
			continue
		}
		v, ok := percentile(x.xs, x.q)
		note := ""
		if !ok {
			note = "unsupported: fewer than 10 samples beyond"
		}
		fmt.Fprintf(&b, "  %-26s %14.4f %-12s n=%-8d %s\n", x.name, v, "ms", len(x.xs), note)
	}
	if n := len(res.primary); n > 0 && n < tailWindow {
		fmt.Fprintf(&b, "  p99_ms unsupported: fewer than 10 of %d samples beyond it\n", n)
	}
	for _, p := range res.problems {
		fmt.Fprintf(&b, "  problem: %s\n", p)
	}
	return b.String()
}

func primaryLatencies(res *runResult) []float64 {
	lat := make([]float64, len(res.primary))
	for i, s := range res.primary {
		lat[i] = s.ms
	}
	return lat
}
