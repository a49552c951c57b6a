// Package client implements the unified IPS client (§III): the single
// library every upstream application uses to reach the compute-cache
// layer. It discovers instances through the registry, routes each profile
// ID with consistent hashing, and applies the multi-region discipline of
// §III-G (Fig. 15): writes go to every region, queries go to the local
// region, and a failed local query fails over to another region.
//
// Reads run behind the degradation ladder DESIGN.md describes
// ("Degradation ladder: the read path under failure"): budgeted retries,
// hedged requests against slow primaries, and per-instance circuit
// breakers — invariant: Attempts == Primaries + Retries + Hedges + Duals,
// which chaostest reconciles exactly. An optional trace.Tracer samples
// requests end to end (DESIGN.md "Request tracing").
//
// Elastic resharding (DESIGN.md "Elastic resharding"): each region keeps
// two rings — the authority ring (settled + joining members) and the old
// ring (settled + draining members). A key whose owners differ is inside
// a migration window: writes go to BOTH owners — and are acknowledged
// only when both legs succeed, so every acked in-window write provably
// reached both — and reads race both, preferring the outgoing owner's
// response: inside the window its copy is a superset of the incoming
// owner's (acked dual-writes land on both while profile state only flows
// old→new), so no cross-instance watermark comparison is needed. Windows
// open and close purely through discovery State transitions propagated by
// heartbeat.
package client

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/discovery"
	"ips/internal/hashring"
	"ips/internal/metrics"
	"ips/internal/model"
	"ips/internal/rpc"
	"ips/internal/trace"
	"ips/internal/wire"
)

// ErrNoInstances reports an empty (or fully failed) target set.
var ErrNoInstances = errors.New("client: no live IPS instances")

// DefaultRefreshInterval is the discovery poll cadence used when
// Options.RefreshInterval is zero. Exported because the resharding
// coordinator's settle barrier must outwait the slowest client's refresh
// (cluster.Options.SettleInterval defaults to twice this).
const DefaultRefreshInterval = 500 * time.Millisecond

// Options configures a Client.
type Options struct {
	// Caller identifies the upstream application for quota accounting.
	Caller string
	// Service is the discovery service name, e.g. "ips".
	Service string
	// Region is the client's local region; queries prefer it.
	Region string
	// Registry is the discovery catalog — the in-process Registry or a
	// RemoteRegistry connection to a registry daemon; required.
	Registry discovery.Catalog
	// RefreshInterval is the discovery poll cadence; default
	// DefaultRefreshInterval (500ms).
	RefreshInterval time.Duration
	// CallTimeout bounds each RPC; default 1s.
	CallTimeout time.Duration
	// Retries is how many alternate instances a failed query tries
	// (regional failover, §III-G); default 2.
	Retries int

	// HedgeDelay is how long a read waits on its primary before issuing a
	// duplicate to the next replica and taking the first success. 0 means
	// adaptive: the observed p95 of QueryLat, clamped to [1ms,
	// CallTimeout/2]. Negative disables hedging. Only idempotent reads are
	// ever hedged; writes never are.
	HedgeDelay time.Duration
	// HedgeMaxInFlight caps concurrent hedges per client so hedging can't
	// double load during a broad slowdown; default 64.
	HedgeMaxInFlight int
	// RetryBudgetRatio is the retry tokens earned per primary request
	// (retries are bounded to this fraction of primary traffic); default
	// 0.2. Zero or negative means no retries at all.
	RetryBudgetRatio float64
	// RetryBudgetBurst is the token-bucket cap and starting balance;
	// default 10.
	RetryBudgetBurst float64
	// BackoffBase and BackoffCap bound the jittered exponential delay
	// before each retry; defaults 2ms and 100ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is the consecutive transport failures that open an
	// instance's circuit breaker; default 5. Negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker skips its instance
	// before admitting a probe; default 1s.
	BreakerCooldown time.Duration
	// Seed makes backoff jitter deterministic; 0 seeds from the clock.
	Seed int64

	// BatchV1 forces batch reads onto the legacy ips.query_batch response
	// encoding (one embedded QueryResponse per slot). The default is the
	// shared-structure v2 encoding, which carries each distinct response
	// once — at high duplication factors that is most of the batch's
	// bytes. Flip this only to talk to pre-v2 servers or to A/B the
	// encodings (ips-bench -exp hotkey does).
	BatchV1 bool

	// Tracer, when set, samples requests end to end: the client opens the
	// root span, every attempt (primary / retry / hedge) gets its own
	// span, and spans the server ships back in traced responses are
	// grafted in. Nil means requests run untraced unless the caller
	// supplies a context that already carries a trace.
	Tracer *trace.Tracer
}

// Client is the unified IPS client.
type Client struct {
	opts Options

	mu      sync.RWMutex
	regions map[string]*regionState // region -> ring + conns
	watcher *discovery.Watcher
	closed  bool

	// Metrics observed from the caller's side — Fig. 17's client-side
	// error rate comes from here. Requests and Errors count sub-queries
	// for the batch path, so ErrorRate stays comparable across paths.
	Requests  metrics.Counter
	Errors    metrics.Counter
	Failovers metrics.Counter
	QueryLat  metrics.Histogram
	WriteLat  metrics.Histogram

	// Batch-path metrics (ips.query_batch): the distribution of batch
	// sizes, the shard fan-out of the most recent batch's first round,
	// total batch RPCs issued, and batches that finished with failed
	// slots.
	BatchSize      metrics.IntHist
	BatchFanOut    metrics.Gauge
	BatchRPCs      metrics.Counter
	PartialBatches metrics.Counter

	// OnBatchCall observes every batch RPC issued — a test hook for
	// asserting coalescing (one RPC per shard touched). Set it before
	// issuing batches; it runs on the RPC fan-out goroutines.
	OnBatchCall func(region, addr string, subQueries int)

	// Resilience-layer accounting. Every read-path RPC launch increments
	// Attempts plus exactly one of Primaries (first try of a call or of a
	// batch shard group), Retries (budgeted failover re-issues), Hedges
	// (duplicate reads racing a slow primary) or Duals (reads to the
	// outgoing owner of a key inside a migration window), so
	// Attempts == Primaries + Retries + Hedges + Duals holds exactly at
	// any quiescent point — the chaos harness asserts it.
	Attempts      metrics.Counter
	Primaries     metrics.Counter
	Retries       metrics.Counter
	RetriesDenied metrics.Counter // retries refused by the budget
	Hedges        metrics.Counter
	HedgeWins     metrics.Counter // hedge finished first with a success
	Duals         metrics.Counter // dual reads to the outgoing owner of a migrating key
	DualWins      metrics.Counter // dual read carried the response after the authority attempt had failed or was breaker-blocked
	WriteRPCs     metrics.Counter // add RPCs issued (never hedged)

	// Continuous-query accounting (watch.go). Kept apart from the
	// read-path attempt counters: stream opens are not query attempts,
	// so the Attempts == Primaries + Retries + Hedges + Duals invariant
	// is untouched by watch traffic.
	Subscriptions   metrics.Gauge   // live Subscriptions
	SubStreams      metrics.Gauge   // live per-owner watch streams
	SubOpens        metrics.Counter // owner streams opened (incl. reopens)
	SubResubscribes metrics.Counter // streams torn down for reopen (death or ring change)
	SubUpdates      metrics.Counter // updates received across all subscriptions
	SubResyncs      metrics.Counter // Resync-flagged updates received

	// Breaker holds the per-instance circuit breakers consulted by
	// routing; nil when Options.BreakerThreshold < 0.
	Breaker *Breaker

	budget        *retryBudget
	boff          *backoff
	hedgeInFlight atomic.Int64

	// Departed-instance connections are retired on a grace timer instead of
	// closed inline (closing kills that conn's in-flight calls). closing
	// aborts the timers at Close; closeWG keeps the retire goroutines
	// inside the goroutine-leak gate.
	closing chan struct{}
	closeWG sync.WaitGroup
}

type regionState struct {
	// ring is the authority ring: every member except draining ones. It
	// answers "who owns this key after the migration completes" and is the
	// only ring the failover ladder and the batch path consult.
	ring *hashring.Ring
	// oldRing is the pre-migration ring: every member except joining ones.
	// nil outside a migration window (the two member sets are equal). A key
	// whose owners differ between the rings is mid-handoff: writes go to
	// both owners and reads race both (see dualTargets).
	oldRing *hashring.Ring
	conns   map[string]*rpc.Client // addr -> pooled client
}

// New creates a client and starts its discovery refresh.
func New(opts Options) (*Client, error) {
	if opts.Registry == nil {
		return nil, errors.New("client: Registry is required")
	}
	if opts.Service == "" {
		opts.Service = "ips"
	}
	if opts.RefreshInterval <= 0 {
		opts.RefreshInterval = DefaultRefreshInterval
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = time.Second
	}
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.HedgeMaxInFlight <= 0 {
		opts.HedgeMaxInFlight = 64
	}
	if opts.RetryBudgetRatio == 0 {
		opts.RetryBudgetRatio = 0.2
	}
	if opts.RetryBudgetRatio < 0 {
		opts.RetryBudgetRatio = 0
	}
	if opts.RetryBudgetBurst == 0 {
		opts.RetryBudgetBurst = 10
	}
	c := &Client{
		opts:    opts,
		regions: make(map[string]*regionState),
		closing: make(chan struct{}),
	}
	if opts.BreakerThreshold >= 0 {
		c.Breaker = NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
	}
	c.budget = newRetryBudget(opts.RetryBudgetRatio, opts.RetryBudgetBurst)
	c.boff = newBackoff(opts.BackoffBase, opts.BackoffCap, opts.Seed)
	c.watcher = discovery.NewWatcher(opts.Registry, opts.Service, opts.RefreshInterval, c.onInstances)
	return c, nil
}

// onInstances rebuilds the per-region rings from a fresh instance list.
// Each region gets an authority ring (everything but draining members)
// and, while a join or drain is in flight, an old ring (everything but
// joining members); outside a window oldRing is nil and routing collapses
// to the single-ring fast path.
func (c *Client) onInstances(instances []discovery.Instance) {
	type memberSets struct {
		auth, old []string
		all       map[string]bool
	}
	byRegion := make(map[string]*memberSets)
	for _, in := range instances {
		ms := byRegion[in.Region]
		if ms == nil {
			ms = &memberSets{all: make(map[string]bool)}
			byRegion[in.Region] = ms
		}
		ms.all[in.Addr] = true
		if in.State != discovery.StateDraining {
			ms.auth = append(ms.auth, in.Addr)
		}
		if in.State != discovery.StateJoining {
			ms.old = append(ms.old, in.Addr)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	// Update or create region states.
	for region, ms := range byRegion {
		rs := c.regions[region]
		if rs == nil {
			rs = &regionState{ring: hashring.New(0), conns: make(map[string]*rpc.Client)}
			c.regions[region] = rs
		}
		rs.ring.SetMembers(ms.auth)
		if sameMembers(ms.auth, ms.old) {
			// No joining and no draining members: no migration window in
			// this region. (Length alone can't prove that — a simultaneous
			// join and drain keeps the counts equal while the sets differ.)
			rs.oldRing = nil
		} else {
			if rs.oldRing == nil {
				rs.oldRing = hashring.New(0)
			}
			rs.oldRing.SetMembers(ms.old)
		}
		// Retire connections to departed instances: drop them from the
		// routing table now (no new calls), close the socket only after a
		// call-timeout grace so in-flight calls finish instead of dying
		// with a conn-closed error on every refresh that loses a member.
		for addr, conn := range rs.conns {
			if !ms.all[addr] {
				delete(rs.conns, addr)
				c.retireConn(conn)
			}
		}
	}
	// Drop empty regions.
	for region, rs := range c.regions {
		if _, ok := byRegion[region]; !ok {
			for _, conn := range rs.conns {
				c.retireConn(conn)
			}
			delete(c.regions, region)
		}
	}
}

// sameMembers reports whether two member lists drawn from the same
// instance snapshot contain the same addresses (order-insensitive; the
// snapshot never repeats an address within a region).
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	in := make(map[string]bool, len(a))
	for _, s := range a {
		in[s] = true
	}
	for _, s := range b {
		if !in[s] {
			return false
		}
	}
	return true
}

// retireConn closes conn after a grace period of one call timeout — long
// enough for any call already issued on it to complete or time out on its
// own terms. Client.Close short-circuits the grace so tests (and the
// goroutine-leak gate) never wait out the timers.
func (c *Client) retireConn(conn *rpc.Client) {
	c.closeWG.Add(1)
	go func() {
		defer c.closeWG.Done()
		t := time.NewTimer(c.opts.CallTimeout)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closing:
		}
		conn.Close()
	}()
}

// conn returns a pooled client for addr in region.
func (c *Client) conn(region, addr string) *rpc.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	rs := c.regions[region]
	if rs == nil {
		rs = &regionState{ring: hashring.New(0), conns: make(map[string]*rpc.Client)}
		c.regions[region] = rs
	}
	cl := rs.conns[addr]
	if cl == nil {
		cl = rpc.NewClient(addr)
		cl.CallTimeout = c.opts.CallTimeout
		rs.conns[addr] = cl
	}
	return cl
}

// regionsSnapshot returns region names with the local region first.
func (c *Client) regionsSnapshot() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.regions))
	for r := range c.regions {
		out = append(out, r)
	}
	sort.Strings(out)
	// Move local region to the front.
	for i, r := range out {
		if r == c.opts.Region {
			out[0], out[i] = out[i], out[0]
			break
		}
	}
	return out
}

// route returns the owning instance address for id in region.
func (c *Client) route(region string, id model.ProfileID) string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rs := c.regions[region]
	if rs == nil {
		return ""
	}
	return rs.ring.Get(id)
}

// dualTargets resolves id's owners in region: auth is the authority-ring
// owner, old is the old-ring owner when a migration window is open for
// this key ("" when the region has no window or both rings agree — the
// common case, where routing is single-owner).
func (c *Client) dualTargets(region string, id model.ProfileID) (auth, old string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rs := c.regions[region]
	if rs == nil {
		return "", ""
	}
	auth = rs.ring.Get(id)
	if rs.oldRing != nil {
		if o := rs.oldRing.Get(id); o != auth {
			old = o
		}
	}
	return auth, old
}

// routeN returns up to n distinct candidate addresses for id in region.
func (c *Client) routeN(region string, id model.ProfileID, n int) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	rs := c.regions[region]
	if rs == nil {
		return nil
	}
	return rs.ring.GetN(id, n)
}

// traceStart returns ctx carrying a trace when this request should be
// traced. A ctx already carrying one is used as-is (its owner finishes
// it); otherwise the client's tracer makes the sampling draw, and the
// returned trace — nil when unsampled — must be passed to Tracer.Done
// after the root span ends.
func (c *Client) traceStart(ctx context.Context) (context.Context, *trace.Trace) {
	if trace.FromContext(ctx) != nil {
		return ctx, nil
	}
	return c.opts.Tracer.StartRequest(ctx)
}

// Add writes entries for one profile. Per §III-G the write is applied in
// every region; the call succeeds if at least one region accepts it (the
// paper tolerates transient regional write loss). A region whose owner
// for id is mid-migration accepts only when BOTH owners take the write —
// see AddCtx for why a single-leg landing must not be acknowledged.
func (c *Client) Add(table string, id model.ProfileID, entries ...wire.AddEntry) error {
	return c.AddCtx(context.Background(), table, id, entries...)
}

// AddCtx is Add with a request context. If the context carries a trace
// (or the client's tracer samples this request), the write is traced
// under a client.write root span with one RPC round trip per region.
func (c *Client) AddCtx(ctx context.Context, table string, id model.ProfileID, entries ...wire.AddEntry) error {
	start := time.Now()
	defer func() { c.WriteLat.Observe(time.Since(start)) }()
	c.Requests.Inc()
	ctx, owned := c.traceStart(ctx)
	wctx, root := trace.StartSpan(ctx, trace.StageClientWrite)

	payload := wire.EncodeAdd(&wire.AddRequest{
		Caller: c.opts.Caller, Table: table, ProfileID: id, Entries: entries,
	})
	method := wire.MethodAdd
	if len(entries) > 1 {
		method = wire.MethodAddBatch
	}

	var lastErr error
	ok := 0
	for _, region := range c.regionsSnapshot() {
		auth, old := c.dualTargets(region, id)
		targets := make([]string, 0, 2)
		if old != "" {
			// Migration window: the write lands on the outgoing owner too,
			// so its copy stays a superset until the window closes and
			// nothing is lost if the migration is rolled back. Old owner
			// first — it preserves the pre-migration ordering guarantee.
			targets = append(targets, old)
		}
		if auth != "" {
			targets = append(targets, auth)
		}
		// A region accepts the write only when EVERY targeted owner takes
		// it. Inside a migration window that means both legs: the handoff's
		// whole safety argument — the outgoing owner's copy is a superset,
		// content installs replace the destination's slices wholesale, the
		// release pass is mark-only — holds only for writes that reached
		// both owners. A write that landed on just one leg must surface as
		// a failure, not an acknowledgment: acked old-only writes would be
		// dropped by the mark-only release, and acked authority-only writes
		// would be clobbered by a later content pass shipping a fresher
		// source blob that never contained them.
		regionOK := len(targets) > 0
		for _, addr := range targets {
			// Writes are not idempotent, so they are never hedged or retried
			// within a region — but a tripped breaker still skips a broken
			// instance instead of spending a timeout on it. The remaining
			// legs are still issued after a failure: landing the write on
			// every reachable owner keeps the window's copies as close as
			// an unacknowledged write can.
			if c.Breaker != nil && !c.Breaker.Allow(addr) {
				lastErr = ErrBreakerOpen
				regionOK = false
				continue
			}
			c.WriteRPCs.Inc()
			_, err := c.conn(region, addr).CallCtx(wctx, method, payload)
			if c.Breaker != nil {
				c.Breaker.Record(addr, transportOK(err))
			}
			if err != nil {
				lastErr = err
				regionOK = false
				continue
			}
		}
		if regionOK {
			ok++
		}
	}
	var retErr error
	if ok == 0 {
		c.Errors.Inc()
		if lastErr == nil {
			lastErr = ErrNoInstances
		}
		retErr = fmt.Errorf("client: add failed in all regions: %w", lastErr)
	}
	root.EndErr(retErr)
	c.opts.Tracer.Done(owned)
	return retErr
}

// queryMethod issues a read with local-region preference and the full
// degradation ladder: hedge a slow primary, budgeted backoff retries down
// the candidate ladder, broken instances skipped by their breakers.
func (c *Client) queryMethod(ctx context.Context, method string, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	start := time.Now()
	defer func() { c.QueryLat.Observe(time.Since(start)) }()
	c.Requests.Inc()
	ctx, owned := c.traceStart(ctx)
	qctx, root := trace.StartSpan(ctx, trace.StageClientQuery)
	req.Caller = c.opts.Caller
	payload := wire.EncodeQuery(req)

	raw, err := c.readCall(qctx, method, payload, req.ProfileID)
	root.EndErr(err)
	c.opts.Tracer.Done(owned)
	if err != nil {
		c.Errors.Inc()
		return nil, fmt.Errorf("client: query failed: %w", err)
	}
	return wire.DecodeQueryResponse(raw)
}

// hedgeDelay resolves the configured hedge trigger: fixed, adaptive
// (observed p95, via the Histogram quantile accessor), or disabled (< 0).
func (c *Client) hedgeDelay() time.Duration {
	d := c.opts.HedgeDelay
	if d != 0 {
		return d
	}
	// Adaptive: before enough samples exist the p95 is noise, so start
	// conservative at a quarter of the call timeout.
	if c.QueryLat.Count() < 100 {
		return c.opts.CallTimeout / 4
	}
	d = c.QueryLat.P95()
	if min := time.Millisecond; d < min {
		d = min
	}
	if max := c.opts.CallTimeout / 2; d > max {
		d = max
	}
	return d
}

// hedgeAcquire claims one slot under the concurrent-hedge cap.
func (c *Client) hedgeAcquire() bool {
	if c.hedgeInFlight.Add(1) > int64(c.opts.HedgeMaxInFlight) {
		c.hedgeInFlight.Add(-1)
		return false
	}
	return true
}

// transportOK reports whether err leaves the instance's breaker unharmed:
// a nil error or a server-side application error both prove the instance
// answered; only transport failures (timeout, refused, reset) count.
func transportOK(err error) bool {
	if err == nil {
		return true
	}
	var remote *rpc.RemoteError
	return errors.As(err, &remote)
}

// candidates returns the failover ladder for id — ring owner plus
// successors in the local region first, then the other regions — with
// breaker-ready instances ahead of ones currently skipped, so a broken
// primary costs a reorder instead of a timeout.
func (c *Client) candidates(id model.ProfileID) []batchTarget {
	regions := c.regionsSnapshot()
	var ready, blocked []batchTarget
	seen := make(map[string]bool, c.opts.Retries*len(regions))
	for _, region := range regions {
		for _, addr := range c.routeN(region, id, c.opts.Retries) {
			if seen[addr] {
				continue
			}
			seen[addr] = true
			t := batchTarget{region: region, addr: addr}
			if c.Breaker != nil && !c.Breaker.Ready(addr) {
				blocked = append(blocked, t)
				continue
			}
			ready = append(ready, t)
		}
	}
	return append(ready, blocked...)
}

// attemptKind labels a read-path RPC launch for exact accounting.
type attemptKind int

const (
	attemptPrimary attemptKind = iota
	attemptRetry
	attemptHedge
	attemptDual
)

// launch issues one read RPC asynchronously, feeding the breaker and the
// attempt counters, and delivers the outcome, labelled with tag, on
// resCh. Each attempt gets its own span (client.primary / client.retry /
// client.hedge / client.dual) so a trace shows exactly which attempt
// carried the winning response; losers that finish after the request
// returns end their spans with zero duration.
func (c *Client) launch(ctx context.Context, tgt batchTarget, method string, payload []byte, kind attemptKind, tag int, resCh chan<- attemptResult) {
	c.Attempts.Inc()
	stage := trace.StageClientPrimary
	switch kind {
	case attemptPrimary:
		c.Primaries.Inc()
	case attemptRetry:
		c.Retries.Inc()
		c.Failovers.Inc()
		stage = trace.StageClientRetry
	case attemptHedge:
		c.Hedges.Inc()
		stage = trace.StageClientHedge
	case attemptDual:
		c.Duals.Inc()
		stage = trace.StageClientDual
	}
	conn := c.conn(tgt.region, tgt.addr)
	actx, sp := trace.StartSpan(ctx, stage)
	go func() {
		raw, err := conn.CallCtx(actx, method, payload)
		sp.EndErr(err)
		if c.Breaker != nil {
			c.Breaker.Record(tgt.addr, transportOK(err))
		}
		if kind == attemptHedge {
			c.hedgeInFlight.Add(-1)
		}
		resCh <- attemptResult{raw: raw, err: err, hedged: kind == attemptHedge, tag: tag}
	}()
}

type attemptResult struct {
	raw    []byte
	err    error
	hedged bool
	// tag tells a batch group's split hedges apart (0 elsewhere).
	tag int
}

// readCall routes one idempotent read. A key inside a migration window
// (its authority and old owners differ in the first region that has an
// owner at all) takes the dual-read path; everything else — the entire
// steady state — takes the resilient ladder unchanged.
//
// Breakers gate the window's legs old-first, because Allow is committal
// (it may admit a half-open probe that must then actually be issued):
// with the old owner refused the ladder is the only path left and no
// admission has been consumed; with the old owner admitted but the
// authority refused, the read is served from the old owner alone — its
// copy is the preferred response anyway, and the ladder would route on
// the authority ring, whose owner (and ring-neighbor failover
// candidates) may not hold the profile's migrated content yet, turning
// a breaker skip into an empty-but-successful answer.
func (c *Client) readCall(ctx context.Context, method string, payload []byte, id model.ProfileID) ([]byte, error) {
	for _, region := range c.regionsSnapshot() {
		auth, old := c.dualTargets(region, id)
		if auth == "" {
			continue
		}
		if old == "" {
			break
		}
		if c.Breaker != nil && !c.Breaker.Allow(old) {
			// Old owner breaker-blocked: the ladder knows how to wait
			// breakers out.
			break
		}
		oldTgt := batchTarget{region: region, addr: old}
		if c.Breaker != nil && !c.Breaker.Allow(auth) {
			return c.oldOnlyRead(ctx, method, payload, oldTgt, id)
		}
		return c.dualRead(ctx, method, payload,
			batchTarget{region: region, addr: auth}, oldTgt, id)
	}
	return c.resilientCall(ctx, method, payload, id)
}

// oldOnlyRead serves an in-window read from the outgoing owner alone —
// the path taken when the incoming (authority) owner is breaker-blocked.
// The old owner's answer is the one dualRead would prefer regardless, so
// skipping the blocked authority leg costs nothing; only if the old
// owner also fails does the request fall back to the resilient ladder.
func (c *Client) oldOnlyRead(ctx context.Context, method string, payload []byte, old batchTarget, id model.ProfileID) ([]byte, error) {
	c.budget.onPrimary()
	ch := make(chan attemptResult, 1)
	c.launch(ctx, old, method, payload, attemptDual, 0, ch)
	if r := <-ch; r.err == nil {
		c.DualWins.Inc()
		return r.raw, nil
	}
	return c.resilientCall(ctx, method, payload, id)
}

// dualRead races a migrating key's two owners and prefers the outgoing
// owner's response: inside the window its copy is a superset of the
// incoming owner's (acknowledged dual-writes land on both while profile
// state only flows old→new), so the preference needs no watermark
// comparison — journal LSNs from different instances are not comparable
// anyway. The old leg's success returns immediately, without waiting for
// the authority: a stalled or still-warming authority (a node mid-join)
// must not add its latency to every in-window read. The authority
// attempt is still not wasted — it warms the incoming owner's cache, and
// its result is waited for (and used) only once the old leg has failed.
// Should both fail, the request falls back to the full resilient ladder
// rather than surfacing a window-shaped error to the caller.
func (c *Client) dualRead(ctx context.Context, method string, payload []byte, auth, old batchTarget, id model.ProfileID) ([]byte, error) {
	c.budget.onPrimary()
	authCh := make(chan attemptResult, 1)
	oldCh := make(chan attemptResult, 1)
	c.launch(ctx, auth, method, payload, attemptPrimary, 0, authCh)
	c.launch(ctx, old, method, payload, attemptDual, 0, oldCh)
	var authRes *attemptResult
	for {
		select {
		case r := <-oldCh:
			if r.err == nil {
				// DualWins counts only authority failures observed before
				// the old leg answered; an authority still in flight here
				// is abandoned unjudged (its channel is buffered).
				if authRes != nil && authRes.err != nil {
					c.DualWins.Inc()
				}
				return r.raw, nil
			}
			if authRes == nil {
				r := <-authCh
				authRes = &r
			}
			if authRes.err == nil {
				return authRes.raw, nil
			}
			return c.resilientCall(ctx, method, payload, id)
		case r := <-authCh:
			// Remember the authority outcome but keep waiting on the old
			// leg: even a successful authority answer may be missing
			// content its cache has not received yet.
			authRes = &r
		}
	}
}

// resilientCall runs one idempotent read against id's candidate ladder:
// the primary goes to the first breaker-admitted candidate; if it dawdles
// past the hedge delay a single duplicate races it from the next
// candidate; failures walk the remaining ladder under the retry budget
// with jittered exponential backoff. The first success wins.
func (c *Client) resilientCall(ctx context.Context, method string, payload []byte, id model.ProfileID) ([]byte, error) {
	psp := trace.StartLeaf(ctx, trace.StageClientPick)
	cands := c.candidates(id)
	psp.End()
	if len(cands) == 0 {
		return nil, ErrNoInstances
	}
	c.budget.onPrimary()

	// Buffered for every possible launch so loser goroutines never block.
	resCh := make(chan attemptResult, len(cands)+1)
	next := 0
	inflight := 0
	// issue launches the next admissible candidate; breaker-refused ones
	// are skipped (they fail fast locally instead of eating a timeout).
	issue := func(kind attemptKind) bool {
		for next < len(cands) {
			tgt := cands[next]
			next++
			if c.Breaker != nil && !c.Breaker.Allow(tgt.addr) {
				continue
			}
			c.launch(ctx, tgt, method, payload, kind, 0, resCh)
			inflight++
			return true
		}
		return false
	}
	if !issue(attemptPrimary) {
		// Whole ladder breaker-refused: fail fast. The breakers admit
		// probes once their cooldowns elapse, so this clears itself.
		return nil, ErrBreakerOpen
	}
	primaryRegion := cands[next-1].region

	var hedgeTimer, retryTimer *time.Timer
	var hedgeCh, retryCh <-chan time.Time
	if hd := c.hedgeDelay(); hd >= 0 && next < len(cands) {
		hedgeTimer = time.NewTimer(hd)
		hedgeCh = hedgeTimer.C
		defer hedgeTimer.Stop()
	}
	retries := 0
	var lastErr error
	for {
		if inflight == 0 && retryCh == nil {
			if lastErr == nil {
				lastErr = ErrNoInstances
			}
			return nil, lastErr
		}
		select {
		case r := <-resCh:
			inflight--
			if r.err == nil {
				if r.hedged {
					c.HedgeWins.Inc()
				}
				return r.raw, nil
			}
			lastErr = r.err
			// A failed attempt means we are in retry mode now; the hedge
			// timer only guards against a *slow* healthy primary.
			if hedgeCh != nil {
				hedgeTimer.Stop()
				hedgeCh = nil
			}
			if retryCh == nil && next < len(cands) {
				if c.budget.allow() {
					retryTimer = time.NewTimer(c.boff.delay(retries))
					retryCh = retryTimer.C
					retries++
				} else {
					c.RetriesDenied.Inc()
				}
			}
		case <-retryCh:
			retryCh = nil
			retryTimer.Stop()
			issue(attemptRetry)
		case <-hedgeCh:
			hedgeCh = nil
			if c.hedgeAcquire() {
				c.hedgeFirst(cands, next, primaryRegion, id)
				if !issue(attemptHedge) {
					c.hedgeInFlight.Add(-1)
				}
			}
		}
	}
}

// hedgeFirst moves the first candidate at or after next that owns id in
// a region other than the primary's up to position next, so the hedge
// goes where the acknowledged writes are: writes land on one owner per
// region, and a ring successor in the primary's region holds them only
// once the owner has flushed. With no such candidate (a single region)
// the ladder order stands.
func (c *Client) hedgeFirst(cands []batchTarget, next int, primaryRegion string, id model.ProfileID) {
	for j := next; j < len(cands); j++ {
		t := cands[j]
		if t.region != primaryRegion && c.route(t.region, id) == t.addr {
			copy(cands[next+1:j+1], cands[next:j])
			cands[next] = t
			return
		}
	}
}

// TopK implements get_profile_topK (§II-B2).
func (c *Client) TopK(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(context.Background(), wire.MethodTopK, req)
}

// TopKCtx is TopK with a request context (tracing seam).
func (c *Client) TopKCtx(ctx context.Context, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(ctx, wire.MethodTopK, req)
}

// Filter implements get_profile_filter.
func (c *Client) Filter(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(context.Background(), wire.MethodFilter, req)
}

// FilterCtx is Filter with a request context (tracing seam).
func (c *Client) FilterCtx(ctx context.Context, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(ctx, wire.MethodFilter, req)
}

// Decay implements get_profile_decay.
func (c *Client) Decay(req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(context.Background(), wire.MethodDecay, req)
}

// DecayCtx is Decay with a request context (tracing seam).
func (c *Client) DecayCtx(ctx context.Context, req *wire.QueryRequest) (*wire.QueryResponse, error) {
	return c.queryMethod(ctx, wire.MethodDecay, req)
}

// Stats fetches instance statistics from every live instance. Instances
// that fail to answer (or answer garbage) no longer vanish silently: the
// gathered partial results are returned together with a *PartialError
// (errors.Is(err, ErrPartial)) whose indices point into the discovered
// instance list. err is nil only when every instance answered; with no
// usable answer at all the error wraps ErrNoInstances.
func (c *Client) Stats() ([]*wire.StatsResponse, error) {
	insts := c.watcher.Current()
	var out []*wire.StatsResponse
	perr := &PartialError{Errs: make(map[int]error)}
	for i, inst := range insts {
		raw, err := c.conn(inst.Region, inst.Addr).Call(wire.MethodStats, nil)
		var st *wire.StatsResponse
		if err == nil {
			st, err = wire.DecodeStats(raw)
		}
		if err != nil {
			perr.Failed = append(perr.Failed, i)
			perr.Errs[i] = fmt.Errorf("%s (%s): %w", inst.Addr, inst.Region, err)
			continue
		}
		out = append(out, st)
	}
	if len(out) == 0 {
		if len(perr.Failed) > 0 {
			return nil, fmt.Errorf("%w: %v", ErrNoInstances, perr)
		}
		return nil, ErrNoInstances
	}
	if len(perr.Failed) > 0 {
		return out, perr
	}
	return out, nil
}

// ResilienceStats is a point-in-time snapshot of the client's tail-latency
// armor: attempt accounting, hedge and retry counters, and every tracked
// instance's breaker state. ips-cli prints it after the per-instance stats.
type ResilienceStats struct {
	Attempts, Primaries, Retries, RetriesDenied int64
	Hedges, HedgeWins                           int64
	Duals, DualWins                             int64
	WriteRPCs                                   int64
	BreakerTrips, BreakerReOpens                int64
	BreakerProbes, BreakerCloses, BreakerSkips  int64
	BreakerStates                               map[string]BreakerState
	// HedgeDelay is the currently effective hedge trigger (adaptive p95
	// when Options.HedgeDelay == 0); negative means hedging is disabled.
	HedgeDelay time.Duration
}

// Resilience snapshots the hedge/retry/breaker counters.
func (c *Client) Resilience() ResilienceStats {
	rs := ResilienceStats{
		Attempts:      c.Attempts.Value(),
		Primaries:     c.Primaries.Value(),
		Retries:       c.Retries.Value(),
		RetriesDenied: c.RetriesDenied.Value(),
		Hedges:        c.Hedges.Value(),
		HedgeWins:     c.HedgeWins.Value(),
		Duals:         c.Duals.Value(),
		DualWins:      c.DualWins.Value(),
		WriteRPCs:     c.WriteRPCs.Value(),
		HedgeDelay:    c.hedgeDelay(),
	}
	if c.Breaker != nil {
		rs.BreakerTrips = c.Breaker.Trips.Value()
		rs.BreakerReOpens = c.Breaker.ReOpens.Value()
		rs.BreakerProbes = c.Breaker.Probes.Value()
		rs.BreakerCloses = c.Breaker.Closes.Value()
		rs.BreakerSkips = c.Breaker.Skips.Value()
		rs.BreakerStates = c.Breaker.Snapshot()
	}
	return rs
}

// ErrorRate returns the client-observed error fraction (Fig. 17).
func (c *Client) ErrorRate() float64 {
	total := c.Requests.Value()
	if total == 0 {
		return 0
	}
	return float64(c.Errors.Value()) / float64(total)
}

// RefreshNow forces a discovery poll immediately, for tests.
func (c *Client) RefreshNow() {
	c.onInstances(c.opts.Registry.Lookup(c.opts.Service))
}

// Tracer returns the client's request tracer, nil when tracing is off.
func (c *Client) Tracer() *trace.Tracer { return c.opts.Tracer }

// Close stops discovery, closes all connections, and short-circuits any
// retiring connections' grace timers so no goroutine outlives the client.
func (c *Client) Close() error {
	c.watcher.Stop()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closing)
	for _, rs := range c.regions {
		for _, conn := range rs.conns {
			conn.Close()
		}
	}
	c.regions = nil
	c.mu.Unlock()
	c.closeWG.Wait()
	return nil
}
