package physical

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sommelier/internal/index"
	"sommelier/internal/storage"
)

// HashJoin is an inner equi-join. The left input is materialized as the
// build side — in the plans this package serves, the left input is
// always the (small) metadata composite, while the right side streams
// the (large) actual data, so build-left is the right default.
//
// The dominant single-int64 (or timestamp) key case runs a specialized
// path: the build table is a map[int64][]int32 fed straight from the
// key column's backing slice, and the probe reads the key slice
// directly — no composite index.Key construction, no per-row KeyAt
// dispatch. Probing also composes with a deferred selection on the
// probe batch, so a filter below the join never gathers. Composite keys
// keep the general index.Key path.
//
// Under a degree of parallelism (SetParallel), a large fast-path build
// is partitioned: the key column is sharded by hash across per-worker
// maps built concurrently, and probes address the owning shard — no
// merge step, no write sharing. The probe side parallelizes through
// Split: each returned operator probes its own share of the right
// input's morsels against the shared read-only table.
type HashJoin struct {
	left, right   Operator
	leftK, rightK []int
	names         []string
	kinds         []storage.Kind
	// fastKey marks the specialized single-int64/time key path;
	// differential tests clear it to force the composite path.
	fastKey bool
	// dop is the parallelism granted by the executor for the build.
	dop int
	// quota meters the materialized build side against the per-query
	// memory ceiling.
	quota *storage.Quota
	// check cancels the build drain — a pipeline breaker — when the
	// query's deadline expires mid-build.
	check func() error

	built     bool
	buildData *storage.Batch
	table     map[index.Key][]int32
	intTable  *intJoinTable
	// shards replace intTable after a partitioned parallel build:
	// shard i holds the keys whose hash lands in partition i.
	shards    []map[int64][]int32
	shardMask uint64
	// probesLeft counts the probe streams still running; the last one to
	// exhaust recycles the fast-path build scratch.
	probesLeft atomic.Int32
}

// intJoinTable is the fast-path build table: per-key [start, start+n)
// spans into one shared row-index arena, instead of one heap slice per
// key. The map and the arena are pooled, so a steady-state join build
// allocates nothing. Row indexes within a span are in build-row order,
// exactly as the per-key append layout produced.
type intJoinTable struct {
	spans map[int64]intSpan
	rows  []int32 // pooled arena (selection-vector pool shape)
}

type intSpan struct{ start, n int32 }

var joinTablePool sync.Pool

// arenaPool recycles the build-row arenas separately from the
// selection-vector pool: arenas are sized by the build side (possibly
// far beyond BatchSize), and mixing them into the uniformly
// batch-sized selection pool would pin large arrays under small
// vectors.
var arenaPool sync.Pool // *[]int32

func getArena(n int) []int32 {
	if v := arenaPool.Get(); v != nil {
		a := (*v.(*[]int32))[:0]
		if cap(a) >= n {
			return a[:n]
		}
	}
	return make([]int32, n)
}

func putArena(a []int32) {
	if cap(a) == 0 {
		return
	}
	a = a[:0]
	arenaPool.Put(&a)
}

// newIntJoinTable builds the span table over keys in three passes:
// count per key, assign span starts, fill the arena with a per-key
// cursor (temporarily reusing n).
func newIntJoinTable(keys []int64) *intJoinTable {
	t, _ := joinTablePool.Get().(*intJoinTable)
	if t == nil {
		t = &intJoinTable{spans: make(map[int64]intSpan, 64)}
	} else {
		clear(t.spans)
	}
	t.rows = getArena(len(keys))
	for _, k := range keys {
		sp := t.spans[k]
		sp.n++
		t.spans[k] = sp
	}
	var start int32
	for k, sp := range t.spans {
		count := sp.n
		sp.start, sp.n = start, 0
		start += count
		t.spans[k] = sp
	}
	for r, k := range keys {
		sp := t.spans[k]
		t.rows[sp.start+sp.n] = int32(r)
		sp.n++
		t.spans[k] = sp
	}
	return t
}

func (t *intJoinTable) lookup(k int64) []int32 {
	sp, ok := t.spans[k]
	if !ok {
		return nil
	}
	return t.rows[sp.start : sp.start+sp.n]
}

func putIntJoinTable(t *intJoinTable) {
	if t == nil {
		return
	}
	putArena(t.rows)
	t.rows = nil
	joinTablePool.Put(t)
}

// SetParallel implements ParallelHinter: it grants the build phase up
// to dop workers. It must be called before the first Next or Split.
func (j *HashJoin) SetParallel(dop int) { j.dop = dop }

// SetQuota implements QuotaHinter: the materialized build side is
// charged against the per-query memory ceiling.
func (j *HashJoin) SetQuota(q *storage.Quota) { j.quota = q }

// SetCheck implements CheckHinter for the build-side drain.
func (j *HashJoin) SetCheck(check func() error) { j.check = check }

// NewHashJoin joins left and right on pairwise-equal key columns given
// as column positions.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []int) (*HashJoin, error) {
	if len(leftKeys) != len(rightKeys) || len(leftKeys) == 0 {
		return nil, fmt.Errorf("physical: join needs matching, non-empty key lists")
	}
	lk, rk := left.Kinds(), right.Kinds()
	for i := range leftKeys {
		a, b := lk[leftKeys[i]], rk[rightKeys[i]]
		if !joinComparable(a, b) {
			return nil, fmt.Errorf("physical: join key %d kinds %v vs %v", i, a, b)
		}
	}
	return &HashJoin{
		left: left, right: right,
		leftK: leftKeys, rightK: rightKeys,
		fastKey: len(leftKeys) == 1 && isIntKeyKind(lk[leftKeys[0]]) && isIntKeyKind(rk[rightKeys[0]]),
		names:   append(append([]string{}, left.Names()...), right.Names()...),
		kinds:   append(append([]storage.Kind{}, left.Kinds()...), right.Kinds()...),
	}, nil
}

func joinComparable(a, b storage.Kind) bool {
	if a == b {
		return true
	}
	return isIntKeyKind(a) && isIntKeyKind(b)
}

// isIntKeyKind reports kinds backed by an int64 slice, eligible for the
// specialized hash paths.
func isIntKeyKind(k storage.Kind) bool { return k == storage.KindInt64 || k == storage.KindTime }

// Names implements Operator.
func (j *HashJoin) Names() []string { return j.names }

// Kinds implements Operator.
func (j *HashJoin) Kinds() []storage.Kind { return j.kinds }

// parallelBuildMin is the build cardinality below which a partitioned
// build is not worth its per-shard scan of the key column.
const parallelBuildMin = 1 << 13

func (j *HashJoin) build() error {
	rel, err := Collect(j.left, Opts{DOP: j.dop, Quota: j.quota, Check: j.check, Morsel: j.check})
	if err != nil {
		return err
	}
	j.buildData = rel.Flatten()
	// A multi-batch flatten copied the rows: recycle the drained input.
	// A single-batch flatten shares it: disown (the build data lives as
	// long as the join, outside pool accounting).
	if len(rel.Batches()) > 1 {
		rel.Release()
	} else {
		rel.Disown()
	}
	n := j.buildData.Len()
	j.probesLeft.Store(1)
	if j.fastKey {
		if n > 0 && j.dop > 1 && n >= parallelBuildMin {
			j.buildPartitioned(storage.Int64s(j.buildData.Cols[j.leftK[0]]))
		} else if n > 0 {
			j.intTable = newIntJoinTable(storage.Int64s(j.buildData.Cols[j.leftK[0]]))
		}
		j.built = true
		return nil
	}
	j.table = make(map[index.Key][]int32, n)
	for r := 0; r < n; r++ {
		k, err := index.KeyAt(j.buildData, j.leftK, r)
		if err != nil {
			return err
		}
		j.table[k] = append(j.table[k], int32(r))
	}
	j.built = true
	return nil
}

// buildPartitioned builds the fast-path table as hash-partitioned
// shards: each shard's builder scans the full key slice but inserts
// only its own partition, so no lock and no merge is needed, and
// probes stay one shard lookup away. Workers are capped at the granted
// DOP (each handling shards w, w+dop, …), so the build never
// oversubscribes the adaptive per-query budget; total scan work is
// shards×n with shards < 2×DOP — about two passes per core, the price
// of skipping a partition-then-merge phase on a build side that is
// small relative to the probe side.
func (j *HashJoin) buildPartitioned(keys []int64) {
	shards := 1
	for shards < j.dop {
		shards <<= 1
	}
	j.shards = make([]map[int64][]int32, shards)
	j.shardMask = uint64(shards - 1)
	workers := j.dop
	if workers > shards {
		workers = shards
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < shards; s += workers {
				m := make(map[int64][]int32, len(keys)/shards+1)
				for r, v := range keys {
					if hash64(v)&j.shardMask == uint64(s) {
						m[v] = append(m[v], int32(r))
					}
				}
				j.shards[s] = m
			}
		}(w)
	}
	wg.Wait()
}

// lookupInt resolves a fast-path key against whichever table layout the
// build produced.
func (j *HashJoin) lookupInt(k int64) []int32 {
	if j.shards != nil {
		return j.shards[hash64(k)&j.shardMask][k]
	}
	return j.intTable.lookup(k)
}

func (j *HashJoin) tableEmpty() bool {
	if j.fastKey {
		if j.shards != nil {
			for _, m := range j.shards {
				if len(m) > 0 {
					return false
				}
			}
			return true
		}
		return j.intTable == nil || len(j.intTable.spans) == 0
	}
	return len(j.table) == 0
}

// probeDone marks one probe stream exhausted; the last one recycles the
// pooled fast-path build scratch (the arena and span map).
func (j *HashJoin) probeDone() {
	if j.probesLeft.Add(-1) == 0 && j.intTable != nil {
		t := j.intTable
		j.intTable = nil
		putIntJoinTable(t)
	}
}

// Next implements Operator.
func (j *HashJoin) Next() (*storage.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	if j.tableEmpty() {
		return nil, nil
	}
	return j.probeFrom(j.right)
}

// Split implements Splitter: when the probe side can partition its
// morsels, the build runs once (partitioned across the granted workers
// when large) and each returned operator probes one share of the right
// input against the shared read-only table.
func (j *HashJoin) Split(n int) ([]Operator, error) {
	sp, ok := j.right.(Splitter)
	if !ok {
		return nil, nil
	}
	rights, err := sp.Split(n)
	if err != nil || rights == nil {
		return nil, err
	}
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	out := make([]Operator, len(rights))
	for i, r := range rights {
		out[i] = &hashJoinProbe{j: j, right: r}
	}
	j.probesLeft.Store(int32(len(out)))
	return out, nil
}

// probeFrom probes batches pulled from right against the build table.
// It reads only immutable post-build state, so any number of probes may
// run concurrently over disjoint right streams.
func (j *HashJoin) probeFrom(right Operator) (*storage.Batch, error) {
	for {
		rb, err := right.Next()
		if err != nil {
			return nil, err
		}
		if rb == nil {
			j.probeDone()
			return nil, nil
		}
		leftIdx := storage.GetSel(rb.Len())
		rightIdx := storage.GetSel(rb.Len())
		var base *storage.Batch
		if j.fastKey {
			var sel []int32
			base, sel = rb.DetachSel()
			keys := storage.Int64s(base.Cols[j.rightK[0]])
			if sel != nil {
				for _, r := range sel {
					for _, lr := range j.lookupInt(keys[r]) {
						leftIdx = append(leftIdx, lr)
						rightIdx = append(rightIdx, r)
					}
				}
				storage.PutSel(sel)
			} else {
				for r, k := range keys {
					for _, lr := range j.lookupInt(k) {
						leftIdx = append(leftIdx, lr)
						rightIdx = append(rightIdx, int32(r))
					}
				}
			}
		} else {
			base = rb.Materialize()
			n := base.Len()
			for r := 0; r < n; r++ {
				k, err := index.KeyAt(base, j.rightK, r)
				if err != nil {
					storage.PutSel(leftIdx)
					storage.PutSel(rightIdx)
					storage.PutBatch(base)
					return nil, err
				}
				for _, lr := range j.table[k] {
					leftIdx = append(leftIdx, lr)
					rightIdx = append(rightIdx, int32(r))
				}
			}
		}
		if len(leftIdx) == 0 {
			storage.PutSel(leftIdx)
			storage.PutSel(rightIdx)
			storage.PutBatch(base)
			continue
		}
		// Gather both sides into pooled output columns: the join's
		// per-batch gather scratch is the hottest allocation site of the
		// probe. The probe input is fully copied out and recycled.
		cols := make([]storage.Column, 0, len(j.buildData.Cols)+len(base.Cols))
		for _, c := range j.buildData.Cols {
			cols = append(cols, storage.GatherPooled(c, leftIdx))
		}
		for _, c := range base.Cols {
			cols = append(cols, storage.GatherPooled(c, rightIdx))
		}
		storage.PutSel(leftIdx)
		storage.PutSel(rightIdx)
		storage.PutBatch(base)
		return storage.NewPooledBatch(cols...), nil
	}
}

// hashJoinProbe is one partition of a split hash join: it probes its
// own right-side share against the parent's shared build table.
type hashJoinProbe struct {
	j     *HashJoin
	right Operator
}

// Names implements Operator.
func (p *hashJoinProbe) Names() []string { return p.j.names }

// Kinds implements Operator.
func (p *hashJoinProbe) Kinds() []storage.Kind { return p.j.kinds }

// Next implements Operator.
func (p *hashJoinProbe) Next() (*storage.Batch, error) {
	if p.j.tableEmpty() {
		return nil, nil
	}
	return p.j.probeFrom(p.right)
}

// CrossJoin produces the Cartesian product of its inputs; the planner
// emits it only under rule R2 (joining disconnected metadata
// components), so inputs are small.
type CrossJoin struct {
	left, right Operator
	names       []string
	kinds       []storage.Kind

	built    bool
	leftData *storage.Batch
	rightRel *storage.Relation
	li       int
	ri       int
}

// NewCrossJoin builds the product operator.
func NewCrossJoin(left, right Operator) *CrossJoin {
	return &CrossJoin{
		left: left, right: right,
		names: append(append([]string{}, left.Names()...), right.Names()...),
		kinds: append(append([]storage.Kind{}, left.Kinds()...), right.Kinds()...),
	}
}

// Names implements Operator.
func (c *CrossJoin) Names() []string { return c.names }

// Kinds implements Operator.
func (c *CrossJoin) Kinds() []storage.Kind { return c.kinds }

// Next implements Operator.
func (c *CrossJoin) Next() (*storage.Batch, error) {
	if !c.built {
		lrel, err := Collect(c.left, Opts{})
		if err != nil {
			return nil, err
		}
		c.leftData = lrel.Flatten()
		// Both sides outlive the drain (the right batches are re-emitted
		// in the product): take them out of pool accounting.
		lrel.Disown()
		c.rightRel, err = Collect(c.right, Opts{})
		if err != nil {
			return nil, err
		}
		c.rightRel.Disown()
		c.built = true
	}
	for c.li < c.leftData.Len() {
		if c.ri >= len(c.rightRel.Batches()) {
			c.li++
			c.ri = 0
			continue
		}
		rb := c.rightRel.Batches()[c.ri]
		c.ri++
		n := rb.Len()
		leftIdx := make([]int32, n)
		for i := range leftIdx {
			leftIdx[i] = int32(c.li)
		}
		lcols := c.leftData.Gather(leftIdx)
		return storage.NewBatch(append(append([]storage.Column{}, lcols.Cols...), rb.Cols...)...), nil
	}
	return nil, nil
}
