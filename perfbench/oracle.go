package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"sommelier/internal/engine"
	"sommelier/internal/registrar"
	"sommelier/internal/seisgen"
	"sommelier/internal/storage"
)

// answer is the expected (or observed) result of one statement, in the
// shape the checks compare.
type answer struct {
	Count    int64     // T1: files of the station
	Avg      float64   // T4, agg
	Max      float64   // agg
	Rows     int       // stream: rows returned
	Checksum uint64    // stream: order-sensitive over (sample_time, sample_value)
	Windows  []hwindow // T2, sorted by start
}

// hwindow is one row of a T2 answer.
type hwindow struct {
	Start    string
	Max, Std float64
}

// rowHash folds one (sample_time, sample_value) row into an
// order-sensitive checksum.
func rowHash(h uint64, t int64, v float64) uint64 {
	h = (h ^ uint64(t)) * 0x100000001b3
	h = (h ^ math.Float64bits(v)) * 0x9e3779b97f4a7c15
	return h
}

const checksumSeed = 0xcbf29ce484222325

// oracle computes every distinct statement's expected answer without
// the serving engine: counts from the manifest, aggregates and stream
// checksums from re-synthesized samples, and T2 windows from a one-off
// eager_dmd database, which derives every window at load.
func oracle(fx *fixture, stmts []statement) (map[string]answer, error) {
	want := map[string]answer{}
	type acc struct {
		st       statement
		sum      float64
		n        int64
		max      float64
		checksum uint64
	}
	var sampled []*acc
	var t2 []statement
	for _, st := range stmts {
		if _, ok := want[st.SQL]; ok {
			continue
		}
		switch st.Kind {
		case kindT1:
			var n int64
			for _, f := range fx.Manifest.Files {
				if f.Header.Station == st.Station {
					n++
				}
			}
			want[st.SQL] = answer{Count: n}
		case kindT2:
			want[st.SQL] = answer{}
			t2 = append(t2, st)
		default:
			want[st.SQL] = answer{}
			sampled = append(sampled, &acc{st: st, max: math.Inf(-1), checksum: checksumSeed})
		}
	}
	// Files per station in date order, samples per file in time order:
	// the accumulation order is the time order of the archive.
	cfg := fx.Cfg
	for _, sc := range cfg.Stations {
		for _, ch := range sc.Channels {
			for d := 0; d < cfg.Days; d++ {
				f := seisgen.Synthesize(cfg, sc, ch, cfg.Start.AddDate(0, 0, d))
				var mine []*acc
				for _, a := range sampled {
					if a.st.Station == sc.Name {
						mine = append(mine, a)
					}
				}
				for _, seg := range f.Segments {
					period := float64(time.Second) / seg.Header.SampleRate
					for i, raw := range seg.Samples {
						t := seg.Header.StartTime + int64(float64(i)*period)
						v := float64(raw)
						for _, a := range mine {
							if t < a.st.From || t >= a.st.To {
								continue
							}
							a.sum += v
							a.n++
							a.max = math.Max(a.max, v)
							a.checksum = rowHash(a.checksum, t, v)
						}
					}
				}
			}
		}
	}
	for _, a := range sampled {
		if a.n == 0 {
			return nil, fmt.Errorf("oracle: statement selects no samples: %s", a.st.SQL)
		}
		want[a.st.SQL] = answer{Avg: a.sum / float64(a.n), Max: a.max, Rows: int(a.n), Checksum: a.checksum}
	}
	if len(t2) > 0 {
		if err := eagerWindows(fx, t2, want); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// eagerWindows answers the T2 statements from an eager_dmd database.
func eagerWindows(fx *fixture, t2 []statement, want map[string]answer) error {
	db, err := engine.Open(fx.Dir, engine.Config{Approach: registrar.EagerDMd})
	if err != nil {
		return fmt.Errorf("oracle: open eager_dmd: %w", err)
	}
	defer db.Close()
	for _, st := range t2 {
		res, err := db.Query(st.SQL)
		if err != nil {
			return fmt.Errorf("oracle: eager_dmd %s: %w", st.SQL, err)
		}
		flat := res.Rel.Flatten()
		var ws []hwindow
		for r := 0; r < flat.Len(); r++ {
			ws = append(ws, hwindow{
				Start: ts(flat.Cols[0].(*storage.TimeColumn).Value(r)),
				Max:   storage.ValueAt(flat.Cols[1], r).(float64),
				Std:   storage.ValueAt(flat.Cols[2], r).(float64),
			})
		}
		res.Release()
		if len(ws) == 0 {
			return fmt.Errorf("oracle: statement selects no windows: %s", st.SQL)
		}
		sortWindows(ws)
		want[st.SQL] = answer{Windows: ws}
	}
	return nil
}

func sortWindows(ws []hwindow) {
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
}

// near reports whether two aggregates agree to within rounding: sums
// of integral samples are exact, so only the final division may differ.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// matches compares an observed answer with the expected one for kind.
func matches(kind string, got, want answer) error {
	switch kind {
	case kindT1:
		if got.Count != want.Count {
			return fmt.Errorf("count %d, want %d", got.Count, want.Count)
		}
	case kindT4:
		if !near(got.Avg, want.Avg) {
			return fmt.Errorf("avg %v, want %v", got.Avg, want.Avg)
		}
	case kindAgg:
		if !near(got.Avg, want.Avg) || got.Max != want.Max {
			return fmt.Errorf("avg,max %v,%v, want %v,%v", got.Avg, got.Max, want.Avg, want.Max)
		}
	case kindStream:
		if got.Rows != want.Rows || got.Checksum != want.Checksum {
			return fmt.Errorf("rows %d checksum %x, want %d %x", got.Rows, got.Checksum, want.Rows, want.Checksum)
		}
	case kindT2:
		if len(got.Windows) != len(want.Windows) {
			return fmt.Errorf("%d windows, want %d", len(got.Windows), len(want.Windows))
		}
		for i, w := range want.Windows {
			g := got.Windows[i]
			if g.Start != w.Start || g.Max != w.Max || !near(g.Std, w.Std) {
				return fmt.Errorf("window %d = %+v, want %+v", i, g, w)
			}
		}
	}
	return nil
}

// perturb corrupts one expectation of each kind present, for the
// self-test proving that a wrong answer fails the run.
func perturb(want map[string]answer, stmts []statement) {
	seen := map[string]bool{}
	for _, st := range stmts {
		if seen[st.Kind] {
			continue
		}
		seen[st.Kind] = true
		a := want[st.SQL]
		a.Count++
		a.Avg += 1
		a.Max += 1
		a.Checksum ^= 1
		if len(a.Windows) > 0 {
			ws := append([]hwindow(nil), a.Windows...)
			ws[0].Max += 1
			a.Windows = ws
		}
		want[st.SQL] = a
	}
}
