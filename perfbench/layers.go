package main

import (
	"fmt"
	"time"

	"sommelier/internal/mseed"
	"sommelier/internal/registrar"
	"sommelier/internal/sqlparse"
)

// probeBudget is how long each direct layer probe keeps repeating its
// calls, so sub-microsecond calls still give a steady mean.
const probeBudget = 200 * time.Millisecond

// probe is the mean time of one kind of direct layer call.
type probe struct {
	Calls  int
	MeanUS float64
}

func (p *probe) add(d time.Duration) {
	p.MeanUS += (float64(d)/1e3 - p.MeanUS) / float64(p.Calls+1)
	p.Calls++
}

// probeLayers times direct calls into the layers a request crosses but
// whose work the response stats do not itemize: sqlparse.ParseStatement
// on the workload's statements, and mseed.ReadChunkFile plus
// registrar.ChunkToRelation on the chunks the statements select. Each
// call is a root span of its own.
func probeLayers(tr *tracer, fx *fixture, stmts []statement) (parse, decode, build probe, err error) {
	for t0 := time.Now(); time.Since(t0) < probeBudget; {
		for _, st := range stmts {
			id, start := tr.newID(), time.Now()
			_, perr := sqlparse.ParseStatement(st.SQL)
			parse.add(time.Since(start))
			tr.record(id, spanParse, start)
			if perr != nil {
				return parse, decode, build, fmt.Errorf("parse %s: %w", st.SQL, perr)
			}
		}
	}
	ids := map[string]int64{}
	var paths []string
	for _, st := range stmts {
		for _, p := range fx.chunkPaths(st) {
			if _, ok := ids[p]; !ok {
				ids[p] = int64(len(ids))
				paths = append(paths, p)
			}
		}
	}
	if len(paths) == 0 {
		return parse, decode, build, nil
	}
	for t0 := time.Now(); time.Since(t0) < probeBudget; {
		for _, p := range paths {
			id, start := tr.newID(), time.Now()
			f, derr := mseed.ReadChunkFile(p)
			decode.add(time.Since(start))
			tr.record(id, spanDecode, start)
			if derr != nil {
				return parse, decode, build, fmt.Errorf("decode %s: %w", p, derr)
			}
			id, start = tr.newID(), time.Now()
			registrar.ChunkToRelation(ids[p], f)
			build.add(time.Since(start))
			tr.record(id, spanBuild, start)
		}
	}
	return parse, decode, build, nil
}
