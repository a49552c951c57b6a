package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/trace"
	"ips/internal/wire"
)

// batchWorkers bounds how many per-profile groups of one batch execute
// concurrently inside the instance. Batches are already one of many
// concurrent RPCs; a small pool exploits multi-core without letting a
// single fat batch monopolise the instance.
const batchWorkers = 8

// groupKey identifies one (table, profile) group of a batch.
type groupKey struct {
	table string
	id    model.ProfileID
}

// batchWorker is one executor worker's private storage: the query
// scratch it computes with, the filter storage its requests convert
// into, and the buffer it encodes its sub-queries' features into.
type batchWorker struct {
	sc     query.Scratch
	filter query.Filter
	buf    []byte
}

// batchExec is the pooled state of one batch execution: the decoded
// request (service path), the grouping, the per-slot outcomes, the
// workers, and the frame encoder. A warmed batchExec runs a batch of
// any size with a constant number of allocations.
type batchExec struct {
	in     *Instance
	ctx    context.Context
	caller string
	subs   []wire.SubQuery

	// Grouping: group g's sub-query indices are
	// members[start[g]:start[g+1]], in input order.
	keys    map[groupKey]int32
	groupOf []int32
	start   []int32
	fill    []int32
	members []int32
	ngroups int
	next    atomic.Int32
	// nextWorker hands spawned workers their indices (worker 0 is the
	// calling goroutine).
	nextWorker atomic.Int32

	// slots holds each sub-query's outcome; a successful slot's feature
	// bytes live in worker owner[i]'s buffer at [featOff[i], featEnd[i]).
	slots   []wire.BatchSlot
	owner   []int8
	featOff []int32
	featEnd []int32

	workers [batchWorkers]batchWorker
	wg      sync.WaitGroup
	enc     wire.BatchV2Encoder
	req     wire.BatchQueryRequest
	frame   []byte
}

var batchExecPool = sync.Pool{New: func() any { return new(batchExec) }}

// QueryBatch executes a batch of sub-queries (§II-B2 reads, any mix of
// topK / filter / decay semantics) and returns one BatchResult per
// sub-query, in input order. Failures are per-slot: a bad sub-query never
// fails its siblings.
//
// It runs the one batch executor (runBatch) and decodes its v2 frame, so
// in-process callers, the v1 handler and the v2 handler share a single
// execution path. Slots with identical answers share one decoded
// *QueryResponse; results are read-only.
func (in *Instance) QueryBatch(caller string, subs []wire.SubQuery) []wire.BatchResult {
	return in.QueryBatchCtx(context.Background(), caller, subs)
}

// QueryBatchCtx is QueryBatch with a request context carrying the
// request's trace, if sampled. Groups run concurrently, so their spans
// are siblings whose durations overlap: each nests inside the dispatch
// span, but their sum can exceed it.
func (in *Instance) QueryBatchCtx(ctx context.Context, caller string, subs []wire.SubQuery) []wire.BatchResult {
	ex := batchExecPool.Get().(*batchExec)
	defer ex.release()
	ex.frame = in.runBatch(ctx, ex, caller, subs, ex.frame[:0])
	resp, err := wire.DecodeQueryBatchResponseV2(ex.frame)
	if err != nil {
		// The executor's own frame always decodes; fail every slot loudly
		// rather than hand back a short result list.
		results := make([]wire.BatchResult, len(subs))
		for i := range results {
			results[i].Err = err.Error()
		}
		return results
	}
	return resp.Results
}

// runBatch is the batch executor: it groups subs by (table, profile),
// runs the groups on at most batchWorkers workers, and appends the
// ips.query_batch2 frame for the batch to dst. Each worker fetches a
// group's profile from GCache once, then for every sub-query in the
// group charges quota (exactly as N single calls would), runs the engine
// through its own scratch, and immediately appends the result's encoded
// features to its own buffer — so the scratch is free for the next
// sub-query and nothing is copied out of it. The frame is assembled in
// slot order once every worker is done.
func (in *Instance) runBatch(ctx context.Context, ex *batchExec, caller string, subs []wire.SubQuery, dst []byte) []byte {
	ex.in, ex.ctx, ex.caller, ex.subs = in, ctx, caller, subs
	ex.resetSlots(len(subs))
	if in.closed.Load() {
		for i := range ex.slots {
			ex.slots[i].Err = ErrClosed.Error()
		}
		return ex.enc.Append(dst, ex.slots)
	}
	ex.group()
	nw := ex.ngroups
	if nw > batchWorkers {
		nw = batchWorkers
	}
	ex.runWorkers(nw)
	for i := range ex.slots {
		if s := &ex.slots[i]; s.OK {
			s.Feats = ex.workers[ex.owner[i]].buf[ex.featOff[i]:ex.featEnd[i]]
		}
	}
	return ex.enc.Append(dst, ex.slots)
}

// resetSlots sizes the per-slot storage for n sub-queries.
func (ex *batchExec) resetSlots(n int) {
	if cap(ex.slots) < n {
		ex.slots = make([]wire.BatchSlot, n)
		ex.owner = make([]int8, n)
		ex.featOff = make([]int32, n)
		ex.featEnd = make([]int32, n)
		ex.groupOf = make([]int32, n)
		ex.members = make([]int32, n)
	}
	ex.slots = ex.slots[:n]
	clear(ex.slots)
	ex.owner = ex.owner[:n]
	ex.featOff = ex.featOff[:n]
	ex.featEnd = ex.featEnd[:n]
	ex.groupOf = ex.groupOf[:n]
	ex.members = ex.members[:n]
}

// group assigns each sub-query to its (table, profile) group, groups
// numbered in first-seen order, and lays the groups out contiguously in
// members.
func (ex *batchExec) group() {
	if ex.keys == nil {
		ex.keys = make(map[groupKey]int32, len(ex.subs))
	} else {
		clear(ex.keys)
	}
	ex.start = ex.start[:0]
	for i := range ex.subs {
		q := &ex.subs[i].Query
		k := groupKey{q.Table, q.ProfileID}
		g, ok := ex.keys[k]
		if !ok {
			g = int32(len(ex.keys))
			ex.keys[k] = g
			ex.start = append(ex.start, 0)
		}
		ex.groupOf[i] = g
		ex.start[g]++
	}
	ex.ngroups = len(ex.start)
	// Counts to offsets: start[g] becomes group g's first member index.
	ex.start = append(ex.start, 0)
	off := int32(0)
	for g := range ex.start {
		n := ex.start[g]
		ex.start[g] = off
		off += n
	}
	ex.fill = append(ex.fill[:0], ex.start...)
	for i, g := range ex.groupOf {
		ex.members[ex.fill[g]] = int32(i)
		ex.fill[g]++
	}
}

// runWorkers runs the batch's groups on nw workers, the calling
// goroutine being worker 0, and returns once every worker is done — also
// when worker 0 panics (the rpc layer recovers handler panics), so the
// executor never goes back to its pool while a worker still uses it.
func (ex *batchExec) runWorkers(nw int) {
	ex.next.Store(0)
	ex.nextWorker.Store(0)
	defer ex.wg.Wait()
	for w := 1; w < nw; w++ {
		ex.wg.Add(1)
		go ex.workAsync()
	}
	if nw > 0 {
		ex.work(0)
	}
}

// workAsync runs one spawned worker; each takes the next worker index,
// so the go statement passes no arguments and allocates no closure.
func (ex *batchExec) workAsync() {
	defer ex.wg.Done()
	ex.work(int(ex.nextWorker.Add(1)))
}

// work claims groups until none are left.
func (ex *batchExec) work(w int) {
	wk := &ex.workers[w]
	wk.buf = wk.buf[:0]
	for {
		g := int(ex.next.Add(1)) - 1
		if g >= ex.ngroups {
			return
		}
		ex.runGroup(w, wk, ex.members[ex.start[g]:ex.start[g+1]])
	}
}

// runGroup runs one (table, profile) group on worker w. It writes only
// its own members' slots.
func (ex *batchExec) runGroup(w int, wk *batchWorker, members []int32) {
	in := ex.in
	start := time.Now()
	first := &ex.subs[members[0]].Query
	ts, err := in.table(first.Table)
	if err == nil {
		// Hot profiles come back as immutable read replicas, so
		// concurrent groups for the same Zipf-head profile each compute
		// on their own replica instead of serializing on one profile lock.
		var p *model.Profile
		var hit, hot bool
		if p, hit, hot, err = ts.cache.GetForRead(ex.ctx, first.ProfileID); err == nil {
			ex.runMembers(w, wk, ts, p, hit, hot, members, start)
			return
		}
	}
	msg := err.Error()
	for _, i := range members {
		ex.slots[i].Err = msg
	}
}

// runMembers executes a group's sub-queries against its fetched profile
// (nil when the profile does not exist: every sub-query then answers
// empty).
//
//ips:hotpath
func (ex *batchExec) runMembers(w int, wk *batchWorker, ts *tableState, p *model.Profile, hit, hot bool, members []int32, start time.Time) {
	in := ex.in
	var wal uint64
	if p != nil {
		if hot {
			wal = maxLSN(p.WalLSN, p.MigLSN)
		} else {
			p.RLock()
			wal = maxLSN(p.WalLSN, p.MigLSN)
			p.RUnlock()
		}
	}
	//ipslint:ignore hotpathalloc the clock is an injected func value; the default model.Now does not allocate
	now := in.clock()
	csp := trace.StartLeaf(ex.ctx, trace.StageCacheCompute)
	live := 0
	for _, i := range members {
		s := &ex.slots[i]
		if err := in.limiter.Allow(ex.caller); err != nil {
			in.Rejected.Inc()
			s.Err = err.Error()
			continue
		}
		sq := &ex.subs[i].Query
		q := sq.ToQueryInto(&wk.filter)
		if sq.UDAFName != "" {
			fn, err := in.udafs.Lookup(sq.UDAFName)
			if err != nil {
				s.Err = err.Error()
				continue
			}
			q.UDAF = fn
		}
		off := len(wk.buf)
		if p != nil {
			var res query.Result
			var err error
			if hot {
				res, err = query.RunSealedScratch(p, ts.schema, q, now, &wk.sc)
			} else {
				res, err = query.RunScratch(p, ts.schema, q, now, &wk.sc)
			}
			if err != nil {
				s.Err = err.Error()
				continue
			}
			// Encode now: the result aliases the scratch, which the next
			// sub-query reuses.
			wk.buf = wire.AppendQueryFeatures(wk.buf, res.Features)
			s.SlicesScanned = res.SlicesScanned
			s.WalLSN = wal
		}
		s.OK = true
		s.CacheHit = hit
		ex.owner[i] = int8(w)
		ex.featOff[i] = int32(off)
		ex.featEnd[i] = int32(len(wk.buf))
		live++
	}
	csp.End()
	// The group's elapsed time is every member's ServerNanos, so equal
	// answers within a group encode identically and share a blob. One
	// latency observation per group (the unit of server work), one query
	// count per executed sub-query, matching what N singles report.
	elapsed := time.Since(start)
	for _, i := range members {
		if ex.slots[i].OK {
			ex.slots[i].ServerNanos = elapsed.Nanoseconds()
		}
	}
	in.QueryLat.Observe(elapsed)
	in.Queries.Add(int64(live))
}

// release drops the references a finished batch holds into caller
// memory and returns the executor to the pool. Worker buffers, scratch
// and encoder storage are kept for the next batch.
func (ex *batchExec) release() {
	ex.in, ex.ctx, ex.caller, ex.subs = nil, nil, "", nil
	clear(ex.slots)
	clear(ex.keys)
	batchExecPool.Put(ex)
}
