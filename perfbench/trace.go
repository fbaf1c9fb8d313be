package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// traceHeader carries a request's trace ID from the client to the
// server-side span.
const traceHeader = "X-Perfbench-Trace"

// Span names. Each request's spans form the tree
//
//	client.request → server.handler → engine.compile, exec.stage1, exec.load, exec.stage2
//
// where the last four are attributed from the response stats: their
// durations are measured by the engine, and they are laid out one after
// another from the handler's start. The direct layer calls are roots of
// their own.
const (
	spanClient uint8 = iota
	spanServer
	spanCompile
	spanStage1
	spanLoad
	spanStage2
	spanParse
	spanDecode
	spanBuild
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.request", "server.handler", "engine.compile", "exec.stage1", "exec.load", "exec.stage2",
	"sqlparse.ParseStatement", "mseed.ReadChunkFile", "registrar.ChunkToRelation",
}

// spanParent is each span name's parent; noParent marks a root.
const noParent = numSpanNames

var spanParent = [numSpanNames]uint8{
	noParent, spanClient, spanServer, spanServer, spanServer, spanServer,
	noParent, noParent, noParent,
}

// span is one recorded interval, in nanoseconds since the tracer epoch.
type span struct {
	Trace      uint64
	Start, End int64
	Name       uint8
	Attributed bool
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// newID returns a fresh trace ID (never 0, which means untraced).
func (t *tracer) newID() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) add(ss ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, ss...)
	t.mu.Unlock()
}

// record adds a span for a call that ran from start to now.
func (t *tracer) record(id uint64, name uint8, start time.Time) {
	t.add(span{Trace: id, Name: name, Start: t.since(start), End: t.since(time.Now())})
}

// wrap records a server.handler span around every request that carries
// a trace ID.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		if id == 0 {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(id, spanServer, start)
	})
}

// layerTime is one span name's totals.
type layerTime struct {
	Spans       int
	Total, Self time.Duration
}

// selfTimes lays out the attributed spans and returns each span name's
// total and self time. A span's self time is its duration minus the
// part of its interval its children cover.
func selfTimes(spans []span) [numSpanNames]layerTime {
	byTrace := map[uint64][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}
	var out [numSpanNames]layerTime
	for _, idx := range byTrace {
		// Lay attributed spans end to end from their parent's start.
		var cursor [numSpanNames]int64
		var placed [numSpanNames]bool
		for _, i := range idx {
			s := &spans[i]
			if !s.Attributed {
				continue
			}
			p := spanParent[s.Name]
			if !placed[p] {
				for _, j := range idx {
					if spans[j].Name == p && !spans[j].Attributed {
						cursor[p], placed[p] = spans[j].Start, true
					}
				}
			}
			d := s.End - s.Start
			s.Start = cursor[p]
			s.End = s.Start + d
			cursor[p] = s.End
		}
		for _, i := range idx {
			s := spans[i]
			var kids [][2]int64
			for _, j := range idx {
				c := spans[j]
				if spanParent[c.Name] == s.Name {
					lo, hi := max(c.Start, s.Start), min(c.End, s.End)
					if hi > lo {
						kids = append(kids, [2]int64{lo, hi})
					}
				}
			}
			lt := &out[s.Name]
			lt.Spans++
			lt.Total += time.Duration(s.End - s.Start)
			lt.Self += time.Duration(s.End - s.Start - covered(kids))
		}
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			n += x[1] - lo
			end = x[1]
		}
	}
	return n
}

// writeSpans writes the spans as CSV under dir and returns the path.
func writeSpans(dir, workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.csv", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trace,name,parent,start_ns,end_ns,attributed")
	for _, s := range spans {
		parent := ""
		if p := spanParent[s.Name]; p != noParent {
			parent = spanNames[p]
		}
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%t\n", s.Trace, spanNames[s.Name], parent, s.Start, s.End, s.Attributed)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
