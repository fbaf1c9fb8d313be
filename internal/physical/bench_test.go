package physical

import (
	"math/rand"
	"runtime"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

func benchRel(rows int) (*storage.Relation, []string, []storage.Kind) {
	rng := rand.New(rand.NewSource(3))
	rel := storage.NewRelation()
	for lo := 0; lo < rows; lo += storage.BatchSize {
		n := min(storage.BatchSize, rows-lo)
		ids := make([]int64, n)
		vals := make([]float64, n)
		for i := range ids {
			ids[i] = int64(rng.Intn(64))
			vals[i] = rng.NormFloat64() * 1000
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	return rel, []string{"D.file_id", "D.val"}, []storage.Kind{storage.KindInt64, storage.KindFloat64}
}

func BenchmarkFilterScan(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewRelScan(rel, names, kinds, pred)
		if err != nil {
			b.Fatal(err)
		}
		out, err := Collect(s, Opts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkFilterChain stacks a residual Filter above a filtering scan:
// the selection-composition hot path (no intermediate gather).
func BenchmarkFilterChain(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	scanPred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(-500))
	residual := expr.NewAnd(
		expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(500)),
		expr.NewCmp(expr.GE, expr.Col("D.file_id"), expr.Int(8)))
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewRelScan(rel, names, kinds, scanPred)
		if err != nil {
			b.Fatal(err)
		}
		f, err := NewFilter(s, residual)
		if err != nil {
			b.Fatal(err)
		}
		out, err := Collect(f, Opts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkZoneSkipScan scans a relation whose batches carry disjoint
// file_id ranges with a predicate selecting one batch: the zone-map
// pruning path.
func BenchmarkZoneSkipScan(b *testing.B) {
	rel := storage.NewRelation()
	nBatches := 16
	for bi := 0; bi < nBatches; bi++ {
		ids := make([]int64, storage.BatchSize)
		vals := make([]float64, storage.BatchSize)
		for i := range ids {
			ids[i] = int64(bi*1000 + i%1000)
		}
		rel.Append(storage.NewBatch(storage.NewInt64Column(ids), storage.NewFloat64Column(vals)))
	}
	names := []string{"D.file_id", "D.val"}
	kinds := []storage.Kind{storage.KindInt64, storage.KindFloat64}
	pred := expr.NewAnd(
		expr.NewCmp(expr.GE, expr.Col("D.file_id"), expr.Int(5000)),
		expr.NewCmp(expr.LT, expr.Col("D.file_id"), expr.Int(6000)))
	rel.Zone(0, 0) // warm the zone cache outside the loop
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewRelScan(rel, names, kinds, pred)
		if err != nil {
			b.Fatal(err)
		}
		out, err := Collect(s, Opts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkHashJoinProbe(b *testing.B) {
	dimRel := storage.NewRelation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
	}
	dimRel.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	factRel, fnames, fkinds := benchRel(1 << 16)
	b.SetBytes(int64(factRel.Rows()) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, _ := NewRelScan(dimRel, []string{"F.file_id"}, []storage.Kind{storage.KindInt64}, nil)
		fs, _ := NewRelScan(factRel, fnames, fkinds, nil)
		j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		out, err := Collect(j, Opts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

func BenchmarkGroupedAggregate(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := NewRelScan(rel, names, kinds, nil)
		agg, err := NewHashAggregate(s, []int{0}, []AggColumn{
			{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
			{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
		})
		if err != nil {
			b.Fatal(err)
		}
		out, err := Collect(agg, Opts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkHashJoinProbeParallel is the probe benchmark through the
// morsel-parallel drain at DOP = GOMAXPROCS (identical to the serial
// path at GOMAXPROCS=1).
func BenchmarkHashJoinProbeParallel(b *testing.B) {
	dimRel := storage.NewRelation()
	ids := make([]int64, 64)
	for i := range ids {
		ids[i] = int64(i)
	}
	dimRel.Append(storage.NewBatch(storage.NewInt64Column(ids)))
	factRel, fnames, fkinds := benchRel(1 << 16)
	dop := runtime.GOMAXPROCS(0)
	b.SetBytes(int64(factRel.Rows()) * 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ds, _ := NewRelScan(dimRel, []string{"F.file_id"}, []storage.Kind{storage.KindInt64}, nil)
		fs, _ := NewRelScan(factRel, fnames, fkinds, nil)
		j, err := NewHashJoin(ds, fs, []int{0}, []int{0})
		if err != nil {
			b.Fatal(err)
		}
		j.SetParallel(dop)
		out, err := Collect(j, Opts{DOP: dop})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}

// BenchmarkGroupedAggregateParallel folds thread-local partial
// aggregates at DOP = GOMAXPROCS and merges them in range order.
func BenchmarkGroupedAggregateParallel(b *testing.B) {
	rel, names, kinds := benchRel(1 << 16)
	dop := runtime.GOMAXPROCS(0)
	b.SetBytes(int64(rel.Rows()) * 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, _ := NewRelScan(rel, names, kinds, nil)
		agg, err := NewHashAggregate(s, []int{0}, []AggColumn{
			{Func: AggAvg, Arg: expr.Col("D.val"), Name: "avg"},
			{Func: AggStddev, Arg: expr.Col("D.val"), Name: "sd"},
		})
		if err != nil {
			b.Fatal(err)
		}
		agg.SetParallel(dop)
		out, err := Collect(agg, Opts{})
		if err != nil {
			b.Fatal(err)
		}
		out.Release()
	}
}
