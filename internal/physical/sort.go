package physical

import (
	"fmt"
	"sort"

	"sommelier/internal/storage"
)

// SortKey is one ordering key, by column position.
type SortKey struct {
	Col  int
	Desc bool
}

// Sort materializes its input and emits it ordered by the keys. Under a
// degree of parallelism (SetParallel) the input is drained through the
// parallel morsel pipeline; the sort itself then imposes the total
// order, so the result is unaffected by the drain's batch boundaries.
type Sort struct {
	in    Operator
	keys  []SortKey
	dop   int
	quota *storage.Quota
	check func() error
	done  bool
}

// SetParallel implements ParallelHinter: it grants the input drain up
// to dop workers. It must be called before the first Next.
func (s *Sort) SetParallel(dop int) { s.dop = dop }

// SetQuota implements QuotaHinter: the materialized input is charged
// against the per-query memory ceiling.
func (s *Sort) SetQuota(q *storage.Quota) { s.quota = q }

// SetCheck implements CheckHinter: the input drain is a pipeline
// breaker, so without this hook an expired query would sort its whole
// input before anyone noticed the deadline.
func (s *Sort) SetCheck(check func() error) { s.check = check }

// NewSort validates the key positions.
func NewSort(in Operator, keys []SortKey) (*Sort, error) {
	for _, k := range keys {
		if k.Col < 0 || k.Col >= len(in.Names()) {
			return nil, fmt.Errorf("physical: sort key %d out of range", k.Col)
		}
		switch in.Kinds()[k.Col] {
		case storage.KindInt64, storage.KindTime, storage.KindFloat64, storage.KindString:
		default:
			return nil, fmt.Errorf("physical: cannot sort on %v", in.Kinds()[k.Col])
		}
	}
	return &Sort{in: in, keys: keys}, nil
}

// Names implements Operator.
func (s *Sort) Names() []string { return s.in.Names() }

// Kinds implements Operator.
func (s *Sort) Kinds() []storage.Kind { return s.in.Kinds() }

// Next implements Operator.
func (s *Sort) Next() (*storage.Batch, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	rel, err := Collect(s.in, Opts{DOP: s.dop, Quota: s.quota, Check: s.check, Morsel: s.check})
	if err != nil {
		return nil, err
	}
	if rel.Rows() == 0 {
		rel.Release()
		return nil, nil
	}
	flat := rel.Flatten()
	idx := make([]int32, flat.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		for _, k := range s.keys {
			c := cmpAt(flat.Cols[k.Col], int(idx[a]), int(idx[b]))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := flat.Gather(idx)
	// The ordered copy replaces the drained input; recycle any pooled
	// batches the input operators emitted (flat shares rel's only batch
	// in the single-batch case, but the gather above already copied).
	rel.Release()
	return out, nil
}

func cmpAt(c storage.Column, a, b int) int {
	switch c := c.(type) {
	case *storage.Int64Column:
		return cmpOrd(c.Value(a), c.Value(b))
	case *storage.TimeColumn:
		return cmpOrd(c.Value(a), c.Value(b))
	case *storage.Float64Column:
		return cmpOrd(c.Value(a), c.Value(b))
	case *storage.StringColumn:
		return cmpOrd(c.Value(a), c.Value(b))
	default:
		panic(fmt.Sprintf("physical: cmpAt on %T", c))
	}
}

func cmpOrd[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Limit passes through at most N rows. Its early stop abandons
// whatever the upstream operators still hold in flight — pooled
// batches they would have emitted are left to the garbage collector
// (operators have no close protocol), so LIMIT plans trade pool
// locality for the rows they skip.
type Limit struct {
	in   Operator
	n    int
	seen int
}

// NewLimit builds a limit operator.
func NewLimit(in Operator, n int) *Limit { return &Limit{in: in, n: n} }

// Names implements Operator.
func (l *Limit) Names() []string { return l.in.Names() }

// Kinds implements Operator.
func (l *Limit) Kinds() []storage.Kind { return l.in.Kinds() }

// Next implements Operator.
func (l *Limit) Next() (*storage.Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.in.Next()
	if err != nil || b == nil {
		return nil, err
	}
	if l.seen+b.Len() > l.n {
		full := b.Materialize()
		b = full.Slice(0, l.n-l.seen)
		// The sliced views share the truncated batch's storage: take it
		// out of pool accounting (it must never be recycled while the
		// views live, and nobody owns it downstream).
		storage.DisownBatch(full)
	}
	l.seen += b.Len()
	return b, nil
}
