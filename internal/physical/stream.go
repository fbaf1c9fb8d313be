package physical

import (
	"errors"
	"sync"
	"sync/atomic"

	"sommelier/internal/storage"
)

// This file implements the drain, the one loop that pulls an operator
// to completion: batches are delivered incrementally to a StreamSink
// as they are produced. Only pipeline breakers (sort, aggregation, the
// join build side) materialize their input; everything above them —
// scans, filters, projections, fused pipelines, the join probe side —
// flows through with bounded memory, so a streamed query's resident
// footprint is independent of its result cardinality and the first row
// reaches the sink long before the last one is computed. Materializing
// a result is the same drain into a collecting sink (Collect).

// StreamSink receives the batches of a streaming drain, in result
// order. Push takes ownership of the batch — even when it returns an
// error — and recycles it via storage.PutBatch once the rows are
// consumed (or retains it; disowning is the sink's call). The data a
// pushed batch references is only guaranteed valid until the streaming
// call that drove the push returns: sinks that outlive the query must
// copy or serialize rows before returning from Push.
//
// Returning ErrStopStream stops the stream gracefully: the drain stops
// pulling (the cancellation propagates down to the morsel cursor, so
// scan work not yet claimed is never done) and the streaming call
// reports success. Any other error aborts the query with that error.
type StreamSink interface {
	Push(b *storage.Batch) error
}

// ErrStopStream is returned by a StreamSink to end the stream early
// without error: the client has all the rows it wants.
var ErrStopStream = errors.New("physical: stop stream")

// SchemaSink is optionally implemented by sinks that need the output
// schema before the first batch — wire encoders writing a header.
// SetSchema runs once, before execution begins; a zero-row query sees
// SetSchema and then no Push at all.
type SchemaSink interface {
	StreamSink
	SetSchema(names []string, kinds []storage.Kind)
}

// Opts configures a drain; the zero value is serial, unchecked and
// unmetered.
type Opts struct {
	// DOP grants the drain up to this many workers when the operator
	// can split its work (<=1 drains serially on the caller).
	DOP int
	// Check runs before every pull and aborts the drain when it errors
	// — the executor passes its context's Err for cancellation between
	// batches.
	Check func() error
	// Quota, when non-nil, is charged for every batch the drain buffers:
	// the run-ahead buffers of the parallel drain (refunded as they are
	// delivered) and, under Collect, the materialized result — the
	// per-query memory ceiling.
	Quota *storage.Quota
	// Morsel, when non-nil, runs once per morsel-range claim (and once
	// up front on the serial path) and aborts the drain when it errors.
	// The executor uses it for the runaway-query watchdog and the
	// exec.morsel fault point: Check bounds how long a worker runs
	// between pulls, Morsel bounds it between range claims and is the
	// one place injected stalls land.
	Morsel func() error
}

// Drain pulls op to completion into sink. Selection-carrying batches
// over fixed-width schemas are coalesced into full pooled batches;
// contiguous batches pass through untouched (flushing first, to
// preserve row order). With DOP > 1 and a splittable operator, morsel
// ranges are drained by a worker pool into per-range buffers and
// delivered to the sink in range order — the rows reach the sink in
// exactly the serial order, only batch boundaries may differ. Delivery
// is the pacing mechanism: a worker may run at most a bounded number
// of ranges ahead of the delivery frontier, so a slow (or
// backpressured) sink suspends the scan instead of buffering the
// result.
func Drain(op Operator, sink StreamSink, o Opts) error {
	if o.DOP > 1 {
		if sp, ok := op.(Splitter); ok {
			parts, err := sp.Split(o.DOP * morselFanout)
			if err != nil {
				return err
			}
			if len(parts) > 1 {
				return streamParts(parts, sink, o)
			}
			if len(parts) == 1 {
				op = parts[0]
			}
		}
	}
	if err := claimCheck(o.Morsel); err != nil {
		return err
	}
	return streamInto(op, sink, o.Check)
}

// Collect drains op into a relation: Drain into a CollectSink metered
// by o.Quota. The caller owns the relation and Releases (or Disowns)
// it; on error the partial relation is released here.
func Collect(op Operator, o Opts) (*storage.Relation, error) {
	c := &CollectSink{Rel: storage.NewRelationWithCap(batchHint(op)), Quota: o.Quota}
	if err := Drain(op, c, o); err != nil {
		c.Rel.Release()
		return nil, err
	}
	return c.Rel, nil
}

// streamInto is the serial drain loop. The coalescer fills a scratch
// relation; completed batches are pushed as soon as they form, so at
// most one batch's worth of rows is buffered at any time, and the
// scratch keeps its backing array across deliveries.
func streamInto(op Operator, sink StreamSink, check func() error) error {
	coal := storage.NewCoalescer(op.Kinds())
	scratch := storage.NewRelation()
	// deliver pushes everything buffered in scratch. The batch being
	// pushed is owned by the sink from the moment Push is called; on an
	// error only the batches not yet pushed are recycled here.
	deliver := func() error {
		bs := scratch.Batches()
		for i, b := range bs {
			if err := sink.Push(b); err != nil {
				for _, rest := range bs[i+1:] {
					storage.PutBatch(rest)
				}
				scratch.Reset()
				return err
			}
		}
		scratch.Reset()
		return nil
	}
	// dispose recycles rows still buffered after an early exit: the
	// coalescer's builders are flushed into scratch and recycled.
	dispose := func() {
		coal.Flush(scratch)
		scratch.Release()
	}
	for {
		if check != nil {
			if err := check(); err != nil {
				dispose()
				return err
			}
		}
		b, err := op.Next()
		if err != nil {
			dispose()
			return err
		}
		if b == nil {
			coal.Flush(scratch)
			if err := deliver(); err != nil && err != ErrStopStream {
				return err
			}
			return nil
		}
		if coal.Eligible(b) {
			coal.Add(scratch, b)
		} else {
			coal.Flush(scratch)
			scratch.Append(b)
		}
		if err := deliver(); err != nil {
			dispose()
			if err == ErrStopStream {
				// A graceful sink stop ends the stream as a success.
				return nil
			}
			return err
		}
	}
}

// streamParts drains split ranges on a pool of dop workers and
// delivers the per-range buffers to the sink in range order. The
// delivery frontier gates the morsel cursor: a part is only claimed
// when it is within window (2×DOP) ranges of the next undelivered one,
// so sink backpressure (a blocked Push) suspends scanning, and a sink
// stop (ErrStopStream) stops the remaining ranges from ever being
// claimed — the sink-driven cancellation path of LIMIT queries.
func streamParts(parts []Operator, sink StreamSink, o Opts) error {
	dop, check, quota := o.DOP, o.Check, o.Quota
	window := dop * 2
	var (
		mu         sync.Mutex
		ready      = sync.NewCond(&mu)
		outs       = make([]*storage.Relation, len(parts))
		cursor     int // next part index to claim
		next       int // next part index to deliver
		delivering bool
		stop       atomic.Bool // sink stop or failure: cease claiming/pulling
		failErr    error       // first hard error (nil on graceful stop)
		wg         sync.WaitGroup
	)
	// workerCheck aborts in-flight part drains between batches once the
	// stream has stopped.
	workerCheck := func() error {
		if stop.Load() {
			return ErrStopStream
		}
		if check != nil {
			return check()
		}
		return nil
	}
	fail := func(err error) { // with mu held
		stop.Store(true)
		if err != ErrStopStream && failErr == nil {
			failErr = err
		}
		ready.Broadcast()
	}
	if dop > len(parts) {
		dop = len(parts)
	}
	for w := 0; w < dop; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each range buffers into the worker's collecting sink, charged
			// against the quota until delivery refunds it.
			buf := &CollectSink{Quota: quota}
			for {
				mu.Lock()
				for !stop.Load() && cursor < len(parts) && cursor-next >= window {
					ready.Wait()
				}
				if stop.Load() || cursor >= len(parts) {
					mu.Unlock()
					return
				}
				i := cursor
				cursor++
				mu.Unlock()

				if err := claimCheck(o.Morsel); err != nil {
					mu.Lock()
					fail(err)
					mu.Unlock()
					return
				}
				buf.Rel = storage.GetRelation(batchHint(parts[i]))
				if err := streamInto(parts[i], buf, workerCheck); err != nil {
					buf.Rel.Release()
					storage.PutRelation(buf.Rel)
					mu.Lock()
					fail(err)
					mu.Unlock()
					return
				}
				mu.Lock()
				outs[i] = buf.Rel
				// Deliver the in-order frontier. Only one worker delivers at
				// a time (Push calls must be serialized and ordered); others
				// go back to claiming parts.
				if delivering {
					mu.Unlock()
					continue
				}
				delivering = true
				for !stop.Load() && next < len(parts) && outs[next] != nil {
					r := outs[next]
					outs[next] = nil
					mu.Unlock()
					perr := pushRelation(sink, r, quota)
					mu.Lock()
					next++
					ready.Broadcast()
					if perr != nil {
						fail(perr)
						break
					}
				}
				delivering = false
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Ranges drained but never delivered (stop or failure) are this
	// function's to recycle.
	for _, rel := range outs {
		if rel != nil {
			rel.Release()
			storage.PutRelation(rel)
		}
	}
	return failErr
}

// pushRelation hands every batch of a per-range buffer to the sink in
// order, refunds the quota as the buffer empties, and recycles the
// relation header. On a push error the undelivered remainder is
// recycled here (the failing batch itself is the sink's).
func pushRelation(sink StreamSink, r *storage.Relation, quota *storage.Quota) error {
	batches := r.TakeBatches()
	storage.PutRelation(r)
	for bi, b := range batches {
		sz := b.MemSize()
		if err := sink.Push(b); err != nil {
			for _, rest := range batches[bi+1:] {
				// Size before recycling: after PutBatch the columns may
				// already be reallocated by another query.
				rsz := rest.MemSize()
				storage.PutBatch(rest)
				quota.Refund(rsz)
			}
			quota.Refund(sz)
			return err
		}
		quota.Refund(sz)
	}
	return nil
}

// CollectSink accumulates a stream into a relation, charging every
// pushed batch to Quota (nil = unmetered): the sink behind Collect and
// the parallel drain's per-range buffers. The relation owns the pushed
// batches, including one whose charge failed; Release it as usual.
type CollectSink struct {
	Rel   *storage.Relation
	Quota *storage.Quota
}

// Push implements StreamSink.
func (c *CollectSink) Push(b *storage.Batch) error {
	if c.Rel == nil {
		c.Rel = storage.NewRelation()
	}
	c.Rel.Append(b)
	return c.Quota.Charge(b.MemSize())
}
