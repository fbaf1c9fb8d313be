package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sommelier/internal/mseed"
	"sommelier/internal/seisgen"
)

// Statement kinds. The T-numbers follow the paper's Table I taxonomy.
const (
	kindT1     = "T1"     // metadata-only group-by on F
	kindT2     = "T2"     // read of derived windows in H
	kindT4     = "T4"     // AVG over the F⋈S⋈D join
	kindAgg    = "agg"    // multi-day AVG and MAX over the F⋈S⋈D join
	kindStream = "stream" // row-returning scan of (sample_time, sample_value)
)

// statement is one generated query with the parameters the oracle needs.
type statement struct {
	Kind     string
	SQL      string
	Station  string
	From, To int64 // [From, To) in epoch nanoseconds; unused by T1
}

// workload describes one traffic shape: its fixture, its cache and how
// its statement list is drawn from the seed. Every workload is driven by
// one closed-loop client: on a two-core host, two clients contending for
// the cores made every time metric about three times as sensitive to the
// host's own drift.
type workload struct {
	Name           string
	Why            string
	Days           int   // archive days per station
	SamplesPerFile int   // samples per chunk
	CacheBytes     int64 // engine RAM cache; 0 = engine default
	Resident       bool  // warm-up makes the whole archive RAM-resident
	Statements     int   // length of the seeded statement list
	SetUps         int   // set-ups per run; setup_s is their median
	gen            func(rng *rand.Rand, fx *fixture, n int) []statement
}

var workloads = []*workload{
	{
		Name:           "hot_mixed",
		Why:            "1 client, JSON: 48-statement T1/T2/T4 mix over 4 stations x 8 days x 20k samples (26 MB decoded, all RAM-resident), so per-query fixed costs dominate, not loading",
		Days:           8,
		SamplesPerFile: 20000,
		Resident:       true,
		Statements:     48,
		SetUps:         7,
		gen:            genHotMixed,
	},
	{
		Name:           "cold_scan",
		Why:            "1 client, JSON: multi-day AVG/MAX over 4 stations x 60 days x 20k samples (192 MB decoded) under a 16 MiB RAM cache, so chunk load and cache eviction do real work",
		Days:           60,
		SamplesPerFile: 20000,
		CacheBytes:     16 << 20,
		Statements:     64,
		SetUps:         5,
		gen:            genColdScan,
	},
	{
		Name:           "stream_export",
		Why:            "1 client: 20k-row scans streamed as SOMW columnar over the hot_mixed archive, so the streaming drain and the wire encoder carry the cost where the others use JSON",
		Days:           8,
		SamplesPerFile: 20000,
		Resident:       true,
		Statements:     48,
		SetUps:         7,
		gen:            genStreamExport,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fixture is a generated archive: its generator config and manifest.
type fixture struct {
	Cfg      seisgen.Config
	Manifest *seisgen.Manifest
	Dir      string
}

// generate writes w's archive for seed under dir.
func (w *workload) generate(dir string, seed int64) (*fixture, error) {
	cfg := seisgen.DefaultConfig(w.Days)
	cfg.Seed = seed
	cfg.SamplesPerFile = w.SamplesPerFile
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man, err := seisgen.Generate(dir, cfg)
	if err != nil {
		return nil, err
	}
	return &fixture{Cfg: cfg, Manifest: man, Dir: dir}, nil
}

// statements draws w's statement list from seed. The list depends only
// on the seed and the generator config, never on the archive's bytes.
func (w *workload) statements(fx *fixture, seed int64) []statement {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	return w.gen(rng, fx, w.Statements)
}

// primers are the warm-up-only statements of a Resident workload: one
// whole-archive aggregate per station, which loads every chunk.
func (w *workload) primers(fx *fixture) []statement {
	if !w.Resident {
		return nil
	}
	from := fx.Cfg.Start.UnixNano()
	to := fx.Cfg.Start.AddDate(0, 0, fx.Cfg.Days+1).UnixNano()
	var out []statement
	for _, st := range fx.stationNames() {
		out = append(out, statement{Kind: kindAgg, SQL: sqlAgg(st, from, to), Station: st, From: from, To: to})
	}
	return out
}

// decodedBytes is the in-memory size of the whole archive as relation
// columns: five 8-byte columns per sample (file, segment, time, value,
// window).
func (fx *fixture) decodedBytes() int64 { return fx.Manifest.TotalSamples() * 5 * 8 }

func (fx *fixture) stationNames() []string {
	names := make([]string, len(fx.Cfg.Stations))
	for i, st := range fx.Cfg.Stations {
		names[i] = st.Name
	}
	return names
}

// sampleIndex addresses one station's samples by their position in
// time order, through the segment headers of the manifest.
type sampleIndex struct {
	segs  []mseed.SegmentHeader // time order
	cum   []int                 // samples before segs[i]
	total int
}

func (fx *fixture) samples(station string) *sampleIndex {
	ix := &sampleIndex{}
	for _, f := range fx.Manifest.Files {
		if f.Header.Station != station {
			continue
		}
		for _, s := range f.Segments {
			ix.segs = append(ix.segs, s)
			ix.cum = append(ix.cum, ix.total)
			ix.total += int(s.SampleCount)
		}
	}
	return ix
}

// time is the timestamp of sample k, computed the way ingestion
// computes it.
func (ix *sampleIndex) time(k int) int64 {
	i := sort.Search(len(ix.cum), func(i int) bool { return ix.cum[i] > k }) - 1
	s := ix.segs[i]
	period := float64(time.Second) / s.SampleRate
	return s.StartTime + int64(float64(k-ix.cum[i])*period)
}

// span returns a millisecond-aligned range [from, to) holding exactly
// the n samples starting at sample k. Samples are at least a period
// apart, so flooring both ends to the millisecond of a SQL literal
// keeps sample k in and sample k+n out.
func (ix *sampleIndex) span(k, n int) (from, to int64) {
	return floorTo(ix.time(k), time.Millisecond), floorTo(ix.time(k+n), time.Millisecond)
}

func floorTo(ns int64, d time.Duration) int64 { return ns - ns%int64(d) }

// chunkPaths lists the archive files whose samples may fall into
// [from, to) for station — the chunks a statement selects.
func (fx *fixture) chunkPaths(st statement) []string {
	var out []string
	for _, f := range fx.Manifest.Files {
		if f.Header.Station != st.Station || len(f.Segments) == 0 {
			continue
		}
		first := f.Segments[0]
		last := f.Segments[len(f.Segments)-1]
		end := last.StartTime + int64(float64(last.SampleCount)/last.SampleRate*float64(time.Second))
		if first.StartTime < st.To && end >= st.From {
			out = append(out, f.URI)
		}
	}
	return out
}

// ts renders a nanosecond timestamp as a SQL literal.
func ts(ns int64) string { return time.Unix(0, ns).UTC().Format("2006-01-02T15:04:05.000") }

func sqlT1(station string) string {
	return fmt.Sprintf(`SELECT station, COUNT(*) AS n FROM F WHERE station = '%s' GROUP BY station`, station)
}

func sqlT2(station string, from, to int64) string {
	return fmt.Sprintf(`SELECT window_start_ts, window_max_val, window_std_dev FROM H WHERE window_station = '%s' AND window_start_ts >= '%s' AND window_start_ts < '%s'`,
		station, ts(from), ts(to))
}

func sqlT4(station string, from, to int64) string {
	return fmt.Sprintf(`SELECT AVG(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, ts(from), ts(to))
}

func sqlAgg(station string, from, to int64) string {
	return fmt.Sprintf(`SELECT AVG(D.sample_value), MAX(D.sample_value) FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, ts(from), ts(to))
}

func sqlStream(station string, from, to int64) string {
	return fmt.Sprintf(`SELECT D.sample_time, D.sample_value FROM dataview WHERE F.station = '%s' AND D.sample_time >= '%s' AND D.sample_time < '%s'`,
		station, ts(from), ts(to))
}

// Ranges are sized by the samples they hold, not by wall-clock length:
// the archive is sparse and its segment layout is seeded, so a fixed
// time range would select anywhere from none to a whole chunk, and the
// work per statement would swing with the seed. A T4 range holds 30% of
// a chunk's samples (a few minutes of signal, under an hour of archive
// time); a stream range holds one chunk's worth of rows.
func t4Samples(fx *fixture) int     { return fx.Cfg.SamplesPerFile * 3 / 10 }
func streamSamples(fx *fixture) int { return fx.Cfg.SamplesPerFile }

// genHotMixed follows experiments.mixedBag (T1, T2, T4 in turn) with
// seeded stations and sub-day ranges. T2 reads two to eight hourly
// windows from the one holding a seeded sample; T4 averages a range of
// t4Samples samples. Window counts cycle with the index rather than the
// seed, so every seed asks for about the same work.
func genHotMixed(rng *rand.Rand, fx *fixture, n int) []statement {
	stations := fx.stationNames()
	out := make([]statement, 0, n)
	for i := 0; i < n; i++ {
		st := stations[rng.Intn(len(stations))]
		ix := fx.samples(st)
		k := rng.Intn(ix.total - t4Samples(fx))
		switch i % 3 {
		case 0:
			out = append(out, statement{Kind: kindT1, SQL: sqlT1(st), Station: st})
		case 1:
			from := floorTo(ix.time(k), time.Hour)
			to := from + int64(2+(i/3)%7)*int64(time.Hour)
			out = append(out, statement{Kind: kindT2, SQL: sqlT2(st, from, to), Station: st, From: from, To: to})
		default:
			from, to := ix.span(k, t4Samples(fx))
			out = append(out, statement{Kind: kindT4, SQL: sqlT4(st, from, to), Station: st, From: from, To: to})
		}
	}
	return out
}

// genColdScan draws ranges of two to four chunks' worth of samples (the
// length cycles with the index) whose start skews toward the most recent
// days, so some chunks are re-read and most are not.
func genColdScan(rng *rand.Rand, fx *fixture, n int) []statement {
	stations := fx.stationNames()
	out := make([]statement, 0, n)
	for i := 0; i < n; i++ {
		st := stations[rng.Intn(len(stations))]
		ix := fx.samples(st)
		size := (2 + i%3) * fx.Cfg.SamplesPerFile
		u := rng.Float64()
		from, to := ix.span(int(float64(ix.total-size-1)*(1-u*u)), size)
		out = append(out, statement{Kind: kindAgg, SQL: sqlAgg(st, from, to), Station: st, From: from, To: to})
	}
	return out
}

// genStreamExport draws ranges of streamSamples rows from a seeded
// sample, so a scan returns one chunk's worth of rows, mostly from two
// chunks.
func genStreamExport(rng *rand.Rand, fx *fixture, n int) []statement {
	stations := fx.stationNames()
	out := make([]statement, 0, n)
	for i := 0; i < n; i++ {
		st := stations[rng.Intn(len(stations))]
		ix := fx.samples(st)
		from, to := ix.span(rng.Intn(ix.total-streamSamples(fx)), streamSamples(fx))
		out = append(out, statement{Kind: kindStream, SQL: sqlStream(st, from, to), Station: st, From: from, To: to})
	}
	return out
}

// workDir makes a fresh scratch directory under root for one run.
func workDir(root string) (string, error) {
	base := filepath.Join(root, ".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}
