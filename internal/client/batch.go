package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/trace"
	"ips/internal/wire"
)

// ErrPartial marks an operation that produced some results but not all;
// test with errors.Is. The concrete error is a *PartialError carrying
// which units failed.
var ErrPartial = errors.New("client: partial failure")

// PartialError reports which units of a fan-out operation failed: for
// QueryBatch the indices are sub-query positions, for Stats they index the
// discovered instance list. Successful units' results are still returned
// by the operation alongside this error.
type PartialError struct {
	Failed []int         // failed unit indices, ascending
	Errs   map[int]error // last error observed per failed index
}

// Error summarises the failure set.
func (e *PartialError) Error() string {
	if len(e.Failed) == 0 {
		return ErrPartial.Error()
	}
	return fmt.Sprintf("%v: %d failed (first: index %d: %v)",
		ErrPartial, len(e.Failed), e.Failed[0], e.Errs[e.Failed[0]])
}

// Unwrap makes errors.Is(err, ErrPartial) hold.
func (e *PartialError) Unwrap() error { return ErrPartial }

// ErrRetryBudget marks sub-queries whose failover re-dispatch was refused
// because the client's retry budget is exhausted: retries are bounded to a
// fraction of primary traffic so a broad outage cannot amplify itself.
var ErrRetryBudget = errors.New("client: retry budget exhausted")

// batchTarget is one coalesced RPC destination.
type batchTarget struct {
	region, addr string
}

// batchMethod picks the batch read method: shared-structure v2 by
// default, legacy v1 when Options.BatchV1 is set. The request payload is
// identical either way; only the response encoding differs.
func (c *Client) batchMethod() string {
	if c.opts.BatchV1 {
		return wire.MethodQueryBatch
	}
	return wire.MethodQueryBatchV2
}

// decodeBatch parses a batch response in whichever encoding this client
// requested. V2 slots that referenced the same blob share one decoded
// *QueryResponse — batch results are read-only, so sharing is safe.
func (c *Client) decodeBatch(raw []byte) (*wire.BatchQueryResponse, error) {
	if c.opts.BatchV1 {
		return wire.DecodeQueryBatchResponse(raw)
	}
	return wire.DecodeQueryBatchResponseV2(raw)
}

// hedgePart is one RPC of a batch group's hedge: the sub-queries, as
// positions in the group, that one instance is asked for, and its answer
// once it is in.
type hedgePart struct {
	tgt batchTarget
	pos []int
	raw []byte
}

// groupOutcome is the result of one (possibly hedged) batch-group RPC.
type groupOutcome struct {
	// raw is the primary's answer. When the hedge won instead, hedgeWon
	// is set and every part of the group's hedge holds its answer.
	raw      []byte
	hedgeWon bool
	err      error
	// primary is the primary's address once it was sent; hedged reports
	// that the hedge parts were sent too.
	primary string
	hedged  bool
	// losers counts attempts still in flight when the call returned;
	// their goroutines may yet read the request payload.
	losers int
}

// groupCall issues one batch-group RPC to g's target and stores the
// outcome in g.out. If the primary outlasts the hedge delay, the group's
// hedge parts (g.hedges) are issued too; the group is answered by the
// primary's success or by the success of every hedge part, whichever
// comes first. The group's breaker is consulted at issue time: a refused
// primary fails fast with ErrBreakerOpen instead of spending a timeout on
// a known-broken instance.
func (c *Client) groupCall(ctx context.Context, g *batchGroup, subs []wire.SubQuery, payload []byte, kind attemptKind) {
	out := &g.out
	*out = groupOutcome{}
	if c.Breaker != nil && !c.Breaker.Allow(g.tgt.addr) {
		out.err = ErrBreakerOpen
		return
	}
	method := c.batchMethod()
	// Buffered for every possible launch so losers never block.
	resCh := make(chan attemptResult, 1+len(g.hedges))
	issue := func(t batchTarget, p []byte, n int, k attemptKind, tag int) {
		if hook := c.OnBatchCall; hook != nil {
			hook(t.region, t.addr, n)
		}
		c.BatchRPCs.Inc()
		c.launch(ctx, t, method, p, k, tag, resCh)
	}
	const primaryTag = -1
	issue(g.tgt, payload, len(g.idxs), kind, primaryTag)
	out.primary = g.tgt.addr

	var hedgeCh <-chan time.Time
	if hd := c.hedgeDelay(); hd >= 0 && len(g.hedges) > 0 {
		hedgeTimer := time.NewTimer(hd)
		hedgeCh = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	inflight, waiting := 1, 0 // waiting: hedge parts not yet answered
	primaryFailed, hedgeFailed := false, false
	for {
		select {
		case r := <-resCh:
			inflight--
			out.losers = inflight
			switch {
			case r.tag == primaryTag && r.err == nil:
				out.raw, out.err = r.raw, nil
				return
			case r.tag == primaryTag:
				primaryFailed = true
				out.err = r.err
				if !out.hedged || hedgeFailed {
					// No hedge can still answer (none fired yet: the
					// failover rounds own retries).
					return
				}
			case r.err != nil:
				hedgeFailed = true
				out.err = r.err
				if primaryFailed {
					return
				}
			default:
				g.hedges[r.tag].raw = r.raw
				if waiting--; waiting == 0 && !hedgeFailed {
					c.HedgeWins.Inc()
					out.hedgeWon, out.err = true, nil
					return
				}
			}
		case <-hedgeCh:
			hedgeCh = nil
			for tag := range g.hedges {
				hp := &g.hedges[tag]
				if !c.hedgeAcquire() {
					hedgeFailed = true
					break
				}
				if c.Breaker != nil && !c.Breaker.Allow(hp.tgt.addr) {
					c.hedgeInFlight.Add(-1)
					hedgeFailed = true
					break
				}
				issue(hp.tgt, c.hedgePayload(g, subs, hp, payload), len(hp.pos), attemptHedge, tag)
				out.hedged = true
				inflight++
				waiting++
			}
		}
	}
}

// hedgePayload encodes the request of one hedge part: the group's own
// payload when the part covers the whole group, else a fresh encoding of
// the part's sub-queries (hedges are rare; these are not pooled).
func (c *Client) hedgePayload(g *batchGroup, subs []wire.SubQuery, hp *hedgePart, payload []byte) []byte {
	if len(hp.pos) == len(g.idxs) {
		return payload
	}
	req := wire.BatchQueryRequest{Caller: c.opts.Caller, Subs: make([]wire.SubQuery, len(hp.pos))}
	for j, pos := range hp.pos {
		req.Subs[j] = subs[g.idxs[pos]]
	}
	return wire.EncodeQueryBatch(&req)
}

// triedSet records the addresses one sub-query has been sent to, so
// failover under ring churn never loops on a dead shard. Almost every
// sub-query is sent once or twice, so the first two live inline.
type triedSet struct {
	inline [2]string
	n      int
	more   []string
}

func (t *triedSet) has(addr string) bool {
	for i := 0; i < t.n && i < len(t.inline); i++ {
		if t.inline[i] == addr {
			return true
		}
	}
	for _, a := range t.more {
		if a == addr {
			return true
		}
	}
	return false
}

func (t *triedSet) add(addr string) {
	if addr == "" || t.has(addr) {
		return
	}
	if t.n < len(t.inline) {
		t.inline[t.n] = addr
		t.n++
		return
	}
	t.more = append(t.more, addr)
}

// batchPayloads recycles request payload buffers of batch-group RPCs.
var batchPayloads = sync.Pool{New: func() any { return new([]byte) }}

// batchGroup is one coalesced RPC of a round: its destination, its
// sub-queries' indices, its hedge plan, and the outcome.
type batchGroup struct {
	tgt    batchTarget
	idxs   []int
	hedges []hedgePart
	resp   *wire.BatchQueryResponse
	out    groupOutcome
}

// QueryBatch executes N sub-queries (any mix of topK / filter / decay) and
// returns their responses in input order. Sub-queries are grouped by
// owning shard via the hash ring and each (region, shard) group travels in
// ONE ips.query_batch RPC, issued in parallel — a ranking request for
// hundreds of candidates costs S RPCs for S shards touched instead of N.
//
// Failover is per shard group with partial-result semantics: when a group
// RPC fails (or individual slots fail server-side), only those sub-queries
// are re-grouped against each one's next untried candidate — ring
// successors in the local region first, then other regions, exactly the
// ladder the single-query path climbs. Sub-queries that exhaust their
// candidates come back as nil slots, and the returned error is a
// *PartialError (errors.Is(err, ErrPartial)) listing them; err is nil only
// when every slot succeeded.
//
// The returned responses are the caller's: each batch decodes into its
// own storage, so they stay valid and unchanged across later batches.
// Slots with identical answers may share one response; treat them as
// read-only.
func (c *Client) QueryBatch(subs []wire.SubQuery) ([]*wire.QueryResponse, error) {
	return c.QueryBatchCtx(context.Background(), subs)
}

// QueryBatchCtx is QueryBatch with a request context. A traced batch gets
// one client.query root span; each shard group's RPCs hang under it as
// concurrent primary/retry/hedge attempt spans, so sibling durations
// overlap and can sum past the root.
func (c *Client) QueryBatchCtx(ctx context.Context, subs []wire.SubQuery) ([]*wire.QueryResponse, error) {
	if len(subs) == 0 {
		return nil, nil
	}
	start := time.Now()
	defer func() { c.QueryLat.Observe(time.Since(start)) }()
	c.Requests.Add(int64(len(subs)))
	c.BatchSize.Observe(int64(len(subs)))
	ctx, owned := c.traceStart(ctx)
	ctx, root := trace.StartSpan(ctx, trace.StageClientQuery)
	defer func() {
		root.End()
		c.opts.Tracer.Done(owned)
	}()

	results := make([]*wire.QueryResponse, len(subs))
	subErrs := make([]error, len(subs))
	pending := make([]int, len(subs))
	for i := range pending {
		pending[i] = i
	}
	tried := make([]triedSet, len(subs))

	for round := 0; len(pending) > 0; round++ {
		regions := c.regionsSnapshot()
		// Coalesce: assign each pending sub-query its next untried
		// candidate and group by (region, shard) in first-seen order.
		psp := trace.StartLeaf(ctx, trace.StageClientPick)
		groups := c.coalesce(regions, subs, pending, tried, subErrs)
		psp.End()
		if len(groups) == 0 {
			break
		}
		kind := attemptPrimary
		if round == 0 {
			c.BatchFanOut.Set(int64(len(groups)))
			for range groups {
				c.budget.onPrimary()
			}
		} else {
			kind = attemptRetry
			// Retry rounds draw on the budget — one token per re-dispatched
			// group RPC. Denied groups fail their slots immediately instead
			// of amplifying an outage.
			kept := groups[:0]
			for _, g := range groups {
				if c.budget.allow() {
					kept = append(kept, g)
					continue
				}
				c.RetriesDenied.Inc()
				for _, i := range g.idxs {
					subErrs[i] = ErrRetryBudget
				}
			}
			groups = kept
			if len(groups) == 0 {
				break
			}
			time.Sleep(c.boff.delay(round - 1))
		}

		if len(groups) == 1 {
			c.runGroup(ctx, regions, subs, tried, &groups[0], kind)
		} else {
			var wg sync.WaitGroup
			for gi := range groups {
				wg.Add(1)
				go func(g *batchGroup) {
					defer wg.Done()
					c.runGroup(ctx, regions, subs, tried, g, kind)
				}(&groups[gi])
			}
			wg.Wait()
		}

		// Merge: fill successful slots, queue failed ones for the next
		// failover round.
		var next []int
		for gi := range groups {
			g := &groups[gi]
			o := g.out
			if o.err == nil && len(g.resp.Results) != len(g.idxs) {
				o.err = fmt.Errorf("client: batch response carried %d results for %d sub-queries", len(g.resp.Results), len(g.idxs))
			}
			if o.err != nil {
				// Burn every address each sub-query actually reached — a
				// failed hedge target must not be re-picked next round.
				for _, i := range g.idxs {
					tried[i].add(o.primary)
					subErrs[i] = o.err
					next = append(next, i)
				}
				if o.hedged {
					for _, hp := range g.hedges {
						for _, pos := range hp.pos {
							tried[g.idxs[pos]].add(hp.tgt.addr)
						}
					}
				}
				continue
			}
			for j, i := range g.idxs {
				br := g.resp.Results[j]
				if br.Err != "" {
					subErrs[i] = &rpc.RemoteError{Method: c.batchMethod(), Msg: br.Err}
					next = append(next, i)
					continue
				}
				resp := br.Resp
				if resp == nil {
					resp = &wire.QueryResponse{}
				}
				results[i] = resp
				subErrs[i] = nil
			}
		}
		pending = next
	}

	var failed []int
	for i := range subs {
		if results[i] == nil {
			failed = append(failed, i)
		}
	}
	if len(failed) == 0 {
		return results, nil
	}
	c.Errors.Add(int64(len(failed)))
	c.PartialBatches.Inc()
	perr := &PartialError{Failed: failed, Errs: make(map[int]error, len(failed))}
	for _, i := range failed {
		err := subErrs[i]
		if err == nil {
			err = ErrNoInstances
		}
		perr.Errs[i] = err
	}
	return results, perr
}

// coalesce assigns each pending sub-query its next untried candidate and
// groups them by target, groups in first-seen order and each group's
// indices in input order. Sub-queries with no candidate left get
// ErrNoInstances and stay nil slots.
func (c *Client) coalesce(regions []string, subs []wire.SubQuery, pending []int, tried []triedSet, subErrs []error) []batchGroup {
	var groups []batchGroup
	of := make([]int, len(pending)) // group of each pending position, -1 = exhausted
	for k, i := range pending {
		tgt, ok := c.nextCandidate(regions, subs[i].Query.ProfileID, &tried[i], "")
		if !ok {
			if subErrs[i] == nil {
				subErrs[i] = ErrNoInstances
			}
			of[k] = -1
			continue // exhausted: stays a nil slot
		}
		tried[i].add(tgt.addr)
		g := 0
		for g < len(groups) && groups[g].tgt != tgt {
			g++
		}
		if g == len(groups) {
			groups = append(groups, batchGroup{tgt: tgt})
		}
		of[k] = g
	}
	// Lay every group's indices out in one backing array.
	counts := make([]int, len(groups)+1)
	for _, g := range of {
		if g >= 0 {
			counts[g+1]++
		}
	}
	for g := 1; g <= len(groups); g++ {
		counts[g] += counts[g-1]
	}
	backing := make([]int, counts[len(groups)])
	for g := range groups {
		groups[g].idxs = backing[counts[g]:counts[g]:counts[g+1]]
	}
	for k, i := range pending {
		if g := of[k]; g >= 0 {
			groups[g].idxs = append(groups[g].idxs, i)
		}
	}
	return groups
}

// runGroup sends one group's RPC (hedged when the group has a hedge
// plan) and decodes its answer into g. The request payload is encoded
// into a pooled buffer, recycled only when no attempt can still be
// reading it.
func (c *Client) runGroup(ctx context.Context, regions []string, subs []wire.SubQuery, tried []triedSet, g *batchGroup, kind attemptKind) {
	req := wire.BatchQueryRequest{Caller: c.opts.Caller}
	if len(g.idxs) == len(subs) {
		req.Subs = subs // the group is the whole batch, in order
	} else {
		req.Subs = make([]wire.SubQuery, len(g.idxs))
		for j, i := range g.idxs {
			req.Subs[j] = subs[i]
		}
	}
	buf := batchPayloads.Get().(*[]byte)
	payload := wire.AppendQueryBatch((*buf)[:0], &req)
	if c.hedgeDelay() >= 0 {
		g.hedges = c.hedgePlan(regions, subs, g.idxs, tried, g.tgt)
	}
	c.groupCall(ctx, g, subs, payload, kind)
	if g.out.losers == 0 {
		*buf = payload
		batchPayloads.Put(buf)
	}
	if g.out.err != nil {
		return
	}
	if !g.out.hedgeWon {
		g.resp, g.out.err = c.decodeBatch(g.out.raw)
		return
	}
	// The hedge won: lay its parts' answers out in group order.
	resp := &wire.BatchQueryResponse{Results: make([]wire.BatchResult, len(g.idxs))}
	for _, hp := range g.hedges {
		part, err := c.decodeBatch(hp.raw)
		if err == nil && len(part.Results) != len(hp.pos) {
			err = fmt.Errorf("client: batch response carried %d results for %d sub-queries", len(part.Results), len(hp.pos))
		}
		if err != nil {
			g.out.err = err
			return
		}
		for j, pos := range hp.pos {
			resp.Results[pos] = part.Results[j]
		}
	}
	g.resp = resp
}

// nextCandidate walks the failover ladder for id — ring owner plus
// successors in the local region first, then the other regions — and
// returns the first address neither tried nor excluded. Addresses whose
// circuit breaker is not ready are held back and returned only when
// every ready candidate has been exhausted, so one broken shard owner
// costs a ring hop instead of a timeout.
func (c *Client) nextCandidate(regions []string, id model.ProfileID, tried *triedSet, exclude string) (batchTarget, bool) {
	skip := func(addr string) bool { return addr == exclude || tried.has(addr) }
	var blocked *batchTarget
	for _, region := range regions {
		// The owner first, without materializing the ladder: in the
		// steady state it is the answer.
		if addr := c.route(region, id); addr != "" && !skip(addr) && (c.Breaker == nil || c.Breaker.Ready(addr)) {
			return batchTarget{region: region, addr: addr}, true
		}
		for _, addr := range c.routeN(region, id, c.opts.Retries) {
			if skip(addr) {
				continue
			}
			if c.Breaker != nil && !c.Breaker.Ready(addr) {
				if blocked == nil {
					blocked = &batchTarget{region: region, addr: addr}
				}
				continue
			}
			return batchTarget{region: region, addr: addr}, true
		}
	}
	if blocked != nil {
		return *blocked, true
	}
	return batchTarget{}, false
}

// hedgePlan splits a slow group's hedge by target. A hedged read must
// still see every write acknowledged before it, and writes land on one
// owner per region, so each sub-query's hedge goes to its owner in a
// region other than the primary's — a ring successor in the primary's
// region holds the writes only once the owner has flushed them. The
// sub-queries sharing an owner travel in one hedge RPC; the group is
// answered once all of them succeed. With a single region there is no
// such owner, and the whole group's hedge goes to the representative's
// next candidate, as the failover ladder itself would. A group with a
// sub-query that has no admissible owner elsewhere is not hedged.
func (c *Client) hedgePlan(regions []string, subs []wire.SubQuery, idxs []int, tried []triedSet, primary batchTarget) []hedgePart {
	if len(regions) == 1 {
		alt, ok := c.nextCandidate(regions, subs[idxs[0]].Query.ProfileID, &tried[idxs[0]], primary.addr)
		if !ok {
			return nil
		}
		pos := make([]int, len(idxs))
		for j := range pos {
			pos[j] = j
		}
		return []hedgePart{{tgt: alt, pos: pos}}
	}
	var parts []hedgePart
	for pos, i := range idxs {
		tgt, ok := c.ownerElsewhere(regions, subs[i].Query.ProfileID, &tried[i], primary)
		if !ok {
			return nil
		}
		k := 0
		for k < len(parts) && parts[k].tgt != tgt {
			k++
		}
		if k == len(parts) {
			parts = append(parts, hedgePart{tgt: tgt})
		}
		parts[k].pos = append(parts[k].pos, pos)
	}
	return parts
}

// ownerElsewhere returns id's owner in the first region other than the
// primary's where that owner is untried and breaker-ready.
func (c *Client) ownerElsewhere(regions []string, id model.ProfileID, tried *triedSet, primary batchTarget) (batchTarget, bool) {
	for _, region := range regions {
		if region == primary.region {
			continue
		}
		owner := c.route(region, id)
		if owner == "" || owner == primary.addr || tried.has(owner) {
			continue
		}
		if c.Breaker != nil && !c.Breaker.Ready(owner) {
			continue
		}
		return batchTarget{region: region, addr: owner}, true
	}
	return batchTarget{}, false
}
