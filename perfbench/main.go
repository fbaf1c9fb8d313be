// Command perfbench is the repository benchmark. It generates a seeded
// synthetic archive, serves it with the real query service (server.New
// over a lazy engine.DB) on a loopback listener in this process, drives
// one workload with a closed-loop client, checks every answer against an
// oracle computed outside the engine, and prints its metrics.
//
//	perfbench --workload hot_mixed --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 repeats the workload with spans recorded
// and reports the per-layer metrics. A wrong answer or a failed request
// makes the command exit 1 after printing its result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	// perturb corrupts the oracle's expectations: the self-test that a
	// wrong answer fails the run.
	perturb bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: hot_mixed, cold_scan or stream_export")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the archive and the statement list")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root; scratch files go under its .bench_build")
	fs.BoolVar(&o.perturb, "perturb-oracle", false, "corrupt the expected answers (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// failures collects wrong answers and failed requests across a run.
type failures struct {
	n     int
	first error
}

func (f *failures) add(n int, err error) {
	f.n += n
	if f.first == nil && n > 0 {
		f.first = err
	}
}

// bench runs one workload and returns its result; report lines go to
// out. An error means the benchmark itself could not run.
func bench(o options, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(o.root, "BENCHMARK.json")); err != nil {
		return nil, fmt.Errorf("--root %q is not the checkout root: %w", o.root, err)
	}
	dir, err := workDir(o.root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fx, err := w.generate(filepath.Join(dir, "archive"), o.seed)
	if err != nil {
		return nil, err
	}
	stmts := w.statements(fx, o.seed)
	prime := w.primers(fx)
	want, err := oracle(fx, append(append([]statement(nil), stmts...), prime...))
	if err != nil {
		return nil, err
	}
	if o.perturb {
		perturb(want, stmts)
	}
	ld := &load{stmts: stmts, prime: prime, want: want}
	for _, st := range stmts {
		ld.bodies = append(ld.bodies, requestBody(st))
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d nproc=%d gomaxprocs=%d chunks=%d segments=%d samples=%d decoded_bytes=%d archive_bytes=%d cache_bytes=%d statements=%d distinct=%d\n",
		w.Name, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(fx.Manifest.Files), fx.Manifest.TotalSegments(),
		fx.Manifest.TotalSamples(), fx.decodedBytes(), fx.Manifest.TotalBytes(), w.CacheBytes, len(stmts), len(distinct(stmts)))

	var tr *tracer
	setUps := w.SetUps
	if o.trace {
		tr, setUps = newTracer(), 1
	}
	var fails failures
	var svc *service
	var setupS []float64
	attempted := 0
	for i := 0; i < setUps; i++ {
		runtime.GC()
		t0 := time.Now()
		if svc, err = startService(w, fx, tr); err != nil {
			return nil, err
		}
		sent, wf := ld.warmUp(svc)
		setupS = append(setupS, time.Since(t0).Seconds())
		attempted += sent
		fails.add(wf.n, wf.first)
		if i < setUps-1 {
			if err := svc.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer svc.stop()
	c := newClient(svc.http, svc.base)
	for _, i := range distinct(stmts) {
		if stmts[i].Kind != kindStream {
			continue
		}
		attempted++
		if err := c.checkReference(stmts[i], ld.bodies[i], want[stmts[i].SQL]); err != nil {
			fails.add(1, fmt.Errorf("reference decode of %s: %w", stmts[i].SQL, err))
		}
	}
	fmt.Fprintf(out, "setup_s each=%v\n", setupS)

	d := time.Duration(o.seconds * float64(time.Second))
	metrics := map[string]metricValue{}
	put := func(name string, v float64) { metrics[name] = metricValue{Value: v, Unit: unitOf(name)} }
	if !o.trace {
		win := ld.run(svc, d, nil)
		attempted += win.attempted
		fails.add(win.failed, win.firstErr)
		// Blocks follow completion order, so take them before sorting.
		p99, blocks := blockPercentile(win.latency, 0.99)
		p50 := percentile(win.latency, 0.50)
		fb := percentile(win.firstByte, 0.50)
		put("qps", win.qps())
		put("latency_p50_ms", p50.Value)
		put("latency_p99_ms", p99.Value)
		put("first_byte_p50_ms", fb.Value)
		put("peak_heap_mb", median(win.heapPeaksMB))
		put("setup_s", median(setupS))
		fmt.Fprintf(out, "window wall_s=%.3f attempted=%d failed=%d failed_ratio=%g latency_samples=%d p99_blocks=%d p99_min_beyond_per_block=%d heap_peak_max_mb=%.2f\n",
			win.wall.Seconds(), win.attempted, win.failed, ratio(float64(win.failed), float64(win.attempted)), p99.N, blocks, p99.Beyond, slices.Max(win.heapPeaksMB))
		if !p99.Reportable() {
			fmt.Fprintf(out, "warning: latency_p99_ms has %d samples beyond it (< %d): lengthen --seconds\n", p99.Beyond, minBeyond)
		}
	} else {
		wins, err := tracedRun(o, w, fx, ld, svc, tr, d, put, out)
		if err != nil {
			return nil, err
		}
		for _, win := range wins {
			attempted += win.attempted
			fails.add(win.failed, win.firstErr)
		}
	}
	if fails.first != nil {
		fmt.Fprintf(out, "FAILED %d: first: %v\n", fails.n, fails.first)
	}
	return &result{
		Correct:   fails.n == 0,
		Attempted: attempted,
		Failed:    fails.n,
		Metrics:   metrics,
	}, nil
}

// tracedRun measures the workload untraced and then traced for half the
// window each, probes the layers directly, and reports the per-layer
// metrics and the self-time table.
func tracedRun(o options, w *workload, fx *fixture, ld *load, svc *service, tr *tracer, d time.Duration,
	put func(string, float64), out io.Writer) ([]*window, error) {
	plain := ld.run(svc, d/2, nil)
	cache0, plans0 := svc.db.CacheStats(), svc.db.PlanCacheStats()
	win := ld.run(svc, d/2, tr)
	cache1, plans1 := svc.db.CacheStats(), svc.db.PlanCacheStats()
	st, err := fetchStats(svc.http, svc.base)
	if err != nil {
		return nil, err
	}
	parse, decode, build, err := probeLayers(tr, fx, ld.stmts)
	if err != nil {
		return nil, err
	}

	q := float64(win.attempted - win.failed)
	per := func(v int64) float64 { return ratio(float64(v), q) }
	selfs := selfTimes(tr.spans)
	meanSelf := func(name uint8) float64 {
		lt := selfs[name]
		return ratio(float64(lt.Self)/1e3, float64(lt.Spans))
	}
	put("server.overhead_us", per(win.overheadUS))
	put("server.bytes_out_per_query", per(win.bytes))
	put("server.self_us", meanSelf(spanServer))
	put("client.self_us", meanSelf(spanClient))
	put("admission.wait_p99_us", float64(st.Admission.WaitP99US))
	put("sqlparse.parse_us", parse.MeanUS)
	put("engine.compile_us", per(win.compileUS))
	hits, misses := plans1.Hits-plans0.Hits, plans1.Misses-plans0.Misses
	put("engine.plan_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	put("dmd.windows_computed_per_query", per(win.dmdComputed))
	put("exec.stage1_us", per(win.stage1US))
	put("exec.stage2_us", per(win.stage2US))
	put("exec.load_us", per(win.loadUS))
	put("exec.chunks_loaded_per_query", per(win.chunksLoaded))
	put("exec.rows_loaded_per_query", per(win.rowsLoaded))
	ch, cm := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	put("cache.hit_ratio", ratio(float64(ch), float64(ch+cm)))
	put("cache.evictions_per_query", per(cache1.Evictions-cache0.Evictions))
	put("mseed.chunk_decode_us", decode.MeanUS)
	put("registrar.chunk_build_us", build.MeanUS)
	put("storage.allocs_per_query", ratio(float64(win.mallocs), q))
	put("storage.alloc_bytes_per_query", ratio(float64(win.allocBytes), q))
	put("trace.qps_untraced", plain.qps())
	put("trace.qps_traced", win.qps())
	put("trace.overhead_ratio", 1-ratio(win.qps(), plain.qps()))
	put("trace.phases_within_elapsed_ratio", 1-per(win.phaseOverruns))

	fmt.Fprintf(out, "layer self times over %d traced requests (%d spans):\n", int(q), len(tr.spans))
	fmt.Fprintf(out, "  %-26s %8s %12s %12s\n", "span", "count", "mean_us", "self_us")
	for n := uint8(0); n < numSpanNames; n++ {
		lt := selfs[n]
		fmt.Fprintf(out, "  %-26s %8d %12.2f %12.2f\n", spanNames[n], lt.Spans,
			ratio(float64(lt.Total)/1e3, float64(lt.Spans)), ratio(float64(lt.Self)/1e3, float64(lt.Spans)))
	}
	path, err := writeSpans(filepath.Join(o.root, ".bench_build", "traces"), w.Name, o.seed, tr.spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	if win.phaseOverruns > 0 {
		fmt.Fprintf(out, "warning: %d requests report compile+stage1+load+stage2 > elapsed_us\n", win.phaseOverruns)
	}
	return []*window{plain, win}, nil
}
