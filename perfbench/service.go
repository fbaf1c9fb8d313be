package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/server"
)

// service is the real query service — server.New over a lazy
// engine.DB — on a loopback listener in this process.
type service struct {
	db     *engine.DB
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	http   *http.Client
}

// startService opens the archive (metadata registration only: the lazy
// approach loads no samples) and starts serving it. A non-nil tracer
// wraps the handler so traced requests get a server-side span.
func startService(w *workload, fx *fixture, tr *tracer) (*service, error) {
	db, err := engine.Open(fx.Dir, engine.Config{CacheBytes: w.CacheBytes})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	srv := server.New(db, server.Config{})
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tr.wrap(h)
	}
	s := &service{
		db:     db,
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		http: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 8,
			DisableCompression:  true,
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the service down and waits for the serving goroutine.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.http.CloseIdleConnections()
	s.srv.Close()
	if cerr := s.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// load is one workload's inputs as the client sends them.
type load struct {
	stmts  []statement // the timed list
	bodies [][]byte    // request body of each statement
	prime  []statement // sent by the warm-up only, before the list
	want   map[string]answer
}

// check sends st once and compares the answer with the oracle.
func (ld *load) check(c *client, st statement, body []byte) (reply, error) {
	rep, err := c.do(st, body, 0)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", st.SQL, err)
	}
	if err := matches(st.Kind, rep.Answer, ld.want[st.SQL]); err != nil {
		return rep, fmt.Errorf("wrong answer to %s: %w", st.SQL, err)
	}
	return rep, nil
}

// warmUp sends the primers and then every distinct statement of the
// list once, checking each answer: it loads the chunks, derives the DMd
// windows the list reads and fills the plan cache. It returns how many
// requests it sent and the wrong or failed ones.
func (ld *load) warmUp(s *service) (sent int, fails failures) {
	c := newClient(s.http, s.base)
	for _, st := range ld.prime {
		sent++
		if _, err := ld.check(c, st, requestBody(st)); err != nil {
			fails.add(1, err)
		}
	}
	for _, i := range distinct(ld.stmts) {
		sent++
		if _, err := ld.check(c, ld.stmts[i], ld.bodies[i]); err != nil {
			fails.add(1, err)
		}
	}
	return sent, fails
}

// tally accumulates the requests of a window.
type tally struct {
	latency, firstByte []float64 // ms
	attempted, failed  int
	firstErr           error

	bytes, overheadUS                     int64
	compileUS, stage1US, loadUS, stage2US int64
	chunksLoaded, rowsLoaded, dmdComputed int64
	phaseOverruns                         int64
}

func (t *tally) note(rep reply) {
	t.latency = append(t.latency, float64(rep.Latency)/1e6)
	t.firstByte = append(t.firstByte, float64(rep.FirstByte)/1e6)
	t.bytes += rep.Bytes
	st := rep.Stats
	t.overheadUS += rep.Latency.Microseconds() - st.ElapsedUS
	t.compileUS += st.CompileUS
	t.stage1US += st.Stage1US
	t.loadUS += st.LoadUS
	t.stage2US += st.Stage2US
	t.chunksLoaded += int64(st.ChunksLoaded)
	t.rowsLoaded += st.RowsLoaded
	t.dmdComputed += int64(st.DMdComputed)
	if st.CompileUS+st.Stage1US+st.LoadUS+st.Stage2US > st.ElapsedUS {
		t.phaseOverruns++
	}
}

// window is what one timed window measured.
type window struct {
	tally
	wall        time.Duration
	heapPeaksMB []float64 // highest HeapInuse in each second
	mallocs     uint64
	allocBytes  uint64
}

func (w *window) qps() float64 { return float64(w.attempted-w.failed) / w.wall.Seconds() }

const (
	heapTick       = 10 * time.Millisecond
	ticksPerSecond = int(time.Second / heapTick)
)

// heapInuse reads HeapInuse without stopping the world: live object
// bytes plus unused slots in in-use spans.
func heapInuse(samples []metrics.Sample) uint64 {
	metrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

// run drives the service for d with one closed-loop client: it sends
// the next statement of the list only after the previous answer is read
// and checked. With a tracer, every request records a client span,
// joins the server span by trace ID, and attributes the engine phases
// from its stats.
func (ld *load) run(s *service, d time.Duration, tr *tracer) *window {
	heap := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	// The sampler keeps the highest HeapInuse of each second of the
	// window (the last, partial second included).
	stopSampling := make(chan struct{})
	sampled := make(chan []float64)
	go func() {
		tick := time.NewTicker(heapTick)
		defer tick.Stop()
		var peaks []float64
		var cur uint64
		for n := 1; ; n++ {
			select {
			case <-tick.C:
				cur = max(cur, heapInuse(heap))
				if n%ticksPerSecond == 0 {
					peaks = append(peaks, float64(cur)/(1<<20))
					cur = 0
				}
			case <-stopSampling:
				if cur > 0 || len(peaks) == 0 {
					peaks = append(peaks, float64(max(cur, heapInuse(heap)))/(1<<20))
				}
				sampled <- peaks
				return
			}
		}
	}()

	win := &window{}
	t := &win.tally
	t.latency = make([]float64, 0, 1<<14)
	t.firstByte = make([]float64, 0, 1<<14)
	c := newClient(s.http, s.base)
	start := time.Now()
	for n := 0; time.Since(start) < d; n++ {
		i := n % len(ld.stmts)
		st := ld.stmts[i]
		var id uint64
		if tr != nil {
			id = tr.newID()
		}
		t0 := time.Now()
		rep, err := c.do(st, ld.bodies[i], id)
		t.attempted++
		if err == nil {
			err = matches(st.Kind, rep.Answer, ld.want[st.SQL])
			if err != nil {
				err = fmt.Errorf("wrong answer to %s: %w", st.SQL, err)
			}
		}
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			continue
		}
		t.note(rep)
		if tr != nil {
			us := func(v int64) int64 { return v * int64(time.Microsecond) }
			st := rep.Stats
			tr.add(
				span{Trace: id, Name: spanClient, Start: tr.since(t0), End: tr.since(t0) + rep.Latency.Nanoseconds()},
				span{Trace: id, Name: spanCompile, End: us(st.CompileUS), Attributed: true},
				span{Trace: id, Name: spanStage1, End: us(st.Stage1US), Attributed: true},
				span{Trace: id, Name: spanLoad, End: us(st.LoadUS), Attributed: true},
				span{Trace: id, Name: spanStage2, End: us(st.Stage2US), Attributed: true},
			)
		}
	}
	win.wall = time.Since(start)
	close(stopSampling)
	win.heapPeaksMB = <-sampled
	runtime.ReadMemStats(&ms1)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return win
}
