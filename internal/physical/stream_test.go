package physical

// Differential tests for the drain: Drain must deliver exactly the
// rows the serial Collect materializes, in the same order, at every
// degree of parallelism and with pooling on or off; a sink stop must
// end the query early without error and without leaking a single
// pooled batch; a sink failure must abort with that error, equally
// leak-free.

import (
	"errors"
	"math/rand"
	"testing"

	"sommelier/internal/expr"
	"sommelier/internal/storage"
)

var streamDOPs = []int{1, 2, 4, 8}

// withPooling runs fn for pooling off and on (storage.SetPooling, the
// pooled/unpooled differential oracle), restoring pooling afterwards.
// Nothing pooled may be outstanding across a switch.
func withPooling(t *testing.T, fn func(pooled bool)) {
	t.Helper()
	defer storage.SetPooling(true)
	for _, pooled := range []bool{false, true} {
		storage.SetPooling(pooled)
		fn(pooled)
	}
}

// reference is the serial Collect of op, taken out of pool accounting:
// the expected rows outlive the pooling switches of the cases compared
// against them.
func reference(t *testing.T, op Operator) *storage.Relation {
	t.Helper()
	rel, err := Collect(op, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	rel.Disown()
	return rel
}

// stopAfterSink collects rows until a limit, then stops the stream:
// the LIMIT-style consumer.
type stopAfterSink struct {
	rel   *storage.Relation
	limit int
}

func (s *stopAfterSink) Push(b *storage.Batch) error {
	if s.rel == nil {
		s.rel = storage.NewRelation()
	}
	s.rel.Append(b)
	if s.rel.Rows() >= s.limit {
		return ErrStopStream
	}
	return nil
}

// failAfterSink recycles batches until a limit, then fails the stream.
type failAfterSink struct {
	rows int
	fail error
}

func (s *failAfterSink) Push(b *storage.Batch) error {
	s.rows += b.Len()
	storage.PutBatch(b)
	if s.rows > 256 {
		return s.fail
	}
	return nil
}

// streamChain builds the scan → filter → project chain used across
// these tests.
func streamChain(t *testing.T, rel *storage.Relation, names []string, kinds []storage.Kind, pred expr.Expr) Operator {
	t.Helper()
	s, err := NewRelScan(rel, names, kinds, pred)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(s, expr.NewCmp(expr.LT, expr.Col("D.val"), expr.Float(120)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProject(f, []string{"id2", "v"}, []expr.Expr{
		expr.NewArith(expr.Add, expr.Col("D.id"), expr.Int(1)),
		expr.Col("D.val"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStreamMatchesDrain is the core differential: the streamed rows
// equal the materialized rows, row for row, in order.
func TestStreamMatchesDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	rel, names, kinds := diffRel(rng, 24, 256)
	empty := storage.NewRelation()
	for _, r := range []*storage.Relation{rel, empty} {
		for _, pred := range diffPreds(rng) {
			want := reference(t, streamChain(t, r, names, kinds, pred))
			for _, dop := range streamDOPs {
				withPooling(t, func(bool) {
					sink := &CollectSink{}
					err := Drain(streamChain(t, r, names, kinds, pred), sink, Opts{DOP: dop})
					if err != nil {
						t.Fatal(err)
					}
					got := sink.Rel
					if got == nil {
						got = storage.NewRelation()
					}
					sameRelation(t, got, want, pred.String()+" (stream)")
					got.Release()
					storage.RequireNoLeaks(t)
				})
			}
		}
	}
}

// TestStreamEarlyStop stops the stream after a handful of rows: the
// delivered rows must be a prefix of the serial result (sink-driven
// cancellation keeps in-order delivery), the call must report success,
// and nothing pooled may leak — including the morsel ranges the stop
// prevented from ever being scanned.
func TestStreamEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rel, names, kinds := diffRel(rng, 32, 256)
	pred := expr.NewCmp(expr.GT, expr.Col("D.val"), expr.Float(0))
	want := reference(t, streamChain(t, rel, names, kinds, pred))
	for _, dop := range streamDOPs {
		withPooling(t, func(pooled bool) {
			sink := &stopAfterSink{limit: 10}
			err := Drain(streamChain(t, rel, names, kinds, pred), sink, Opts{DOP: dop})
			if err != nil {
				t.Fatalf("dop %d pooled %v: %v", dop, pooled, err)
			}
			got := sink.rel
			if got.Rows() < 10 {
				t.Fatalf("dop %d: stopped after %d rows, want >= 10", dop, got.Rows())
			}
			// Prefix check: the delivered rows are the first rows of the
			// serial result.
			g, w := got.Flatten(), want.Flatten()
			for c := 0; c < w.Width(); c++ {
				for r := 0; r < g.Len(); r++ {
					if storage.ValueAt(g.Cols[c], r) != storage.ValueAt(w.Cols[c], r) {
						t.Fatalf("dop %d: cell (%d,%d) = %v, want %v", dop,
							r, c, storage.ValueAt(g.Cols[c], r), storage.ValueAt(w.Cols[c], r))
					}
				}
			}
			got.Release()
			storage.RequireNoLeaks(t)
		})
	}
}

// TestStreamPushError aborts the stream with a sink failure: the error
// must surface and the undelivered run-ahead buffers must all be
// recycled.
func TestStreamPushError(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rel, names, kinds := diffRel(rng, 32, 256)
	pred := expr.NewCmp(expr.GE, expr.Col("D.id"), expr.Int(0)) // all pass
	boom := errors.New("client hung up")
	for _, dop := range streamDOPs {
		withPooling(t, func(pooled bool) {
			sink := &failAfterSink{fail: boom}
			err := Drain(streamChain(t, rel, names, kinds, pred), sink, Opts{DOP: dop})
			if !errors.Is(err, boom) {
				t.Fatalf("dop %d pooled %v: err = %v, want %v", dop, pooled, err, boom)
			}
			storage.RequireNoLeaks(t)
		})
	}
}

// TestStreamQuota runs a parallel stream under a ceiling far below the
// result size: the run-ahead buffering must trip the quota with a
// typed error and recycle everything it had buffered. Collect meters
// the materialized result the same way, serial and parallel, and
// releases the partial relation itself.
func TestStreamQuota(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	rel, names, kinds := diffRel(rng, 32, 512)
	pred := expr.NewCmp(expr.GE, expr.Col("D.id"), expr.Int(0)) // all pass
	var qe *storage.QuotaError
	sink := &CollectSink{}
	err := Drain(streamChain(t, rel, names, kinds, pred), sink,
		Opts{DOP: 4, Quota: storage.NewQuota(1)})
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want a *storage.QuotaError", err)
	}
	if sink.Rel != nil {
		sink.Rel.Release()
	}
	storage.RequireNoLeaks(t)
	for _, dop := range []int{1, 4} {
		out, err := Collect(streamChain(t, rel, names, kinds, pred),
			Opts{DOP: dop, Quota: storage.NewQuota(1)})
		if !errors.As(err, &qe) || out != nil {
			t.Fatalf("Collect dop %d: out %v, err = %v, want a *storage.QuotaError", dop, out, err)
		}
		storage.RequireNoLeaks(t)
	}
}
