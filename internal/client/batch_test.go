package client

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"ips/internal/cluster"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
)

func batchSub(id model.ProfileID) wire.SubQuery {
	return wire.SubQuery{Op: wire.OpTopK, Query: wire.QueryRequest{
		Table: "up", ProfileID: id, Slot: 1, Type: 1,
		RangeKind: query.Current, Span: 3_600_000,
		SortBy: query.ByAction, Action: "like", K: 10,
	}}
}

// TestQueryBatchCoalescing is the acceptance check for the batch path: N
// sub-queries spanning S shards must issue exactly S RPCs on the happy
// path, and every response must land in its input slot.
func TestQueryBatchCoalescing(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 3)
	c := newClient(t, cl, "east")
	now := clock.Now()

	const n = 32
	for id := model.ProfileID(1); id <= n; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: model.FeatureID(id), Counts: []int64{int64(id), 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)

	// The expected shard set: the ring owner of each profile.
	shards := make(map[string]bool)
	subs := make([]wire.SubQuery, 0, n)
	for id := model.ProfileID(1); id <= n; id++ {
		shards[c.route("east", id)] = true
		subs = append(subs, batchSub(id))
	}
	if len(shards) < 2 {
		t.Fatalf("degenerate routing: %d shards for %d profiles", len(shards), n)
	}

	var mu sync.Mutex
	calls := make(map[string]int) // addr -> sub-queries carried
	c.OnBatchCall = func(region, addr string, subQueries int) {
		mu.Lock()
		calls[addr] += subQueries
		mu.Unlock()
	}
	resps, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatal(err)
	}

	if len(calls) != len(shards) {
		t.Fatalf("issued %d RPCs for %d shards: %v", len(calls), len(shards), calls)
	}
	if got := c.BatchRPCs.Value(); got != int64(len(shards)) {
		t.Fatalf("BatchRPCs = %d, want %d", got, len(shards))
	}
	if got := c.BatchFanOut.Value(); got != int64(len(shards)) {
		t.Fatalf("BatchFanOut = %d, want %d", got, len(shards))
	}
	total := 0
	for addr, k := range calls {
		if !shards[addr] {
			t.Fatalf("RPC issued to non-owner %s", addr)
		}
		total += k
	}
	if total != n {
		t.Fatalf("RPCs carried %d sub-queries, want %d", total, n)
	}
	// Responses merge back in input order: each slot holds its profile's
	// feature.
	for i, resp := range resps {
		id := subs[i].Query.ProfileID
		if resp == nil || len(resp.Features) != 1 || resp.Features[0].FID != id ||
			resp.Features[0].Counts[0] != int64(id) {
			t.Fatalf("slot %d (profile %d): %+v", i, id, resp)
		}
	}
	if got := c.BatchSize.Max(); got != n {
		t.Fatalf("BatchSize max = %d, want %d", got, n)
	}
}

func TestQueryBatchPartialFailure(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	now := clock.Now()
	if err := c.Add("up", 1, wire.AddEntry{Timestamp: now - 10, Slot: 1, Type: 1, FID: 3, Counts: []int64{2, 0}}); err != nil {
		t.Fatal(err)
	}
	forceVisible(cl)

	bad := batchSub(2)
	bad.Query.Table = "ghost"
	subs := []wire.SubQuery{batchSub(1), bad, batchSub(1)}
	resps, err := c.QueryBatch(subs)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) || len(perr.Failed) != 1 || perr.Failed[0] != 1 {
		t.Fatalf("PartialError = %+v", perr)
	}
	if resps[1] != nil {
		t.Fatalf("failed slot non-nil: %+v", resps[1])
	}
	for _, i := range []int{0, 2} {
		if resps[i] == nil || len(resps[i].Features) != 1 || resps[i].Features[0].FID != 3 {
			t.Fatalf("slot %d = %+v", i, resps[i])
		}
	}
	if c.PartialBatches.Value() != 1 {
		t.Fatalf("PartialBatches = %d", c.PartialBatches.Value())
	}
}

// TestQueryBatchShardFailover crashes one instance without letting
// discovery notice, so the batch's group RPC to the dead shard fails in
// transport and only that group re-routes to ring successors.
func TestQueryBatchShardFailover(t *testing.T) {
	cl, clock := newCluster(t, []string{"east"}, 2)
	c := newClient(t, cl, "east")
	now := clock.Now()

	const n = 16
	for id := model.ProfileID(1); id <= n; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: now - 1000, Slot: 1, Type: 1, FID: model.FeatureID(id), Counts: []int64{1, 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)
	// Persist everything so the surviving instance can load the dead
	// shard's profiles from the shared regional store.
	for _, node := range cl.Nodes() {
		if err := node.Instance().FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	victim := cl.Nodes()[0]
	if err := cl.Crash(victim.Name); err != nil {
		t.Fatal(err)
	}
	// No RefreshNow: the client's ring still maps profiles to the dead
	// address.

	subs := make([]wire.SubQuery, 0, n)
	for id := model.ProfileID(1); id <= n; id++ {
		subs = append(subs, batchSub(id))
	}
	resps, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatalf("batch after shard crash: %v", err)
	}
	for i, resp := range resps {
		id := subs[i].Query.ProfileID
		if resp == nil || len(resp.Features) != 1 || resp.Features[0].FID != id {
			t.Fatalf("slot %d (profile %d) after failover: %+v", i, id, resp)
		}
	}
	if c.Failovers.Value() == 0 {
		t.Fatal("no failovers recorded despite a dead shard")
	}
}

func TestQueryBatchEmptyAndNoInstances(t *testing.T) {
	cl, _ := newCluster(t, []string{"east"}, 1)
	c := newClient(t, cl, "east")
	if resps, err := c.QueryBatch(nil); resps != nil || err != nil {
		t.Fatalf("empty batch = %v, %v", resps, err)
	}
	cl.CrashRegion("east")
	time.Sleep(1200 * time.Millisecond)
	c.RefreshNow()
	resps, err := c.QueryBatch([]wire.SubQuery{batchSub(1), batchSub(2)})
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) || len(perr.Failed) != 2 {
		t.Fatalf("PartialError = %+v", perr)
	}
	for i, r := range resps {
		if r != nil {
			t.Fatalf("slot %d non-nil with no instances", i)
		}
	}
}

// TestStatsPartialFailure fault-injects a 100% response drop on one
// instance and asserts Stats surfaces the partial results alongside a
// PartialError instead of silently swallowing the failure.
func TestStatsPartialFailure(t *testing.T) {
	cl, _ := newCluster(t, []string{"east"}, 2)
	c, err := New(Options{
		Caller: "test", Service: "ips", Region: "east",
		Registry:        cl.Registry,
		RefreshInterval: 20 * time.Millisecond,
		CallTimeout:     300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.RefreshNow()

	// Drop every response from one instance: the client sees timeouts.
	nodes := cl.Nodes()
	nodes[0].Service().RPC().SetDropRate(func() float64 { return 1 })

	stats, err := c.Stats()
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	var perr *PartialError
	if !errors.As(err, &perr) || len(perr.Failed) != 1 {
		t.Fatalf("PartialError = %+v", perr)
	}
	if len(stats) != 1 {
		t.Fatalf("got %d stats, want 1 (the healthy instance)", len(stats))
	}

	// Both instances dark: no results, error wraps ErrNoInstances.
	nodes[1].Service().RPC().SetDropRate(func() float64 { return 1 })
	if stats, err = c.Stats(); len(stats) != 0 || !errors.Is(err, ErrNoInstances) {
		t.Fatalf("all-dark stats = %v, %v", stats, err)
	}
}

// TestQueryBatchResultsCallerOwned pins that batch results belong to the
// caller: responses kept from batch A must read the same after batch B,
// over different profiles, has run through the same client and server.
// Pooled storage leaking into returned results — a decode arena, a
// server scratch, a payload buffer — would show up here as A's features
// changing under the caller.
func TestQueryBatchResultsCallerOwned(t *testing.T) {
	// One instance, so each batch is one group and one decode; batch B
	// is the smaller, so storage recycled from A would fit B's answers.
	cl, clock := newCluster(t, []string{"east"}, 1)
	c := newClient(t, cl, "east")
	now := clock.Now()
	const n = 16
	for id := model.ProfileID(1); id <= 2*n; id++ {
		for f := 0; f < 4; f++ {
			if err := c.Add("up", id, wire.AddEntry{
				Timestamp: now - 1000, Slot: 1, Type: 1,
				FID: model.FeatureID(1000*int(id) + f), Counts: []int64{int64(id) + int64(f), int64(f)},
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	forceVisible(cl)

	batch := func(from model.ProfileID, size int) []*wire.QueryResponse {
		subs := make([]wire.SubQuery, 0, size)
		for id := from; id < from+model.ProfileID(size); id++ {
			subs = append(subs, batchSub(id))
		}
		resps, err := c.QueryBatch(subs)
		if err != nil {
			t.Fatal(err)
		}
		return resps
	}
	snapshot := func(resps []*wire.QueryResponse) [][]query.Feature {
		out := make([][]query.Feature, len(resps))
		for i, r := range resps {
			for _, f := range r.Features {
				f.Counts = append([]int64(nil), f.Counts...)
				out[i] = append(out[i], f)
			}
		}
		return out
	}

	a := batch(1, n)
	want := snapshot(a)
	for i, feats := range want {
		if len(feats) != 4 {
			t.Fatalf("batch A slot %d: %d features, want 4", i, len(feats))
		}
	}
	for round := 0; round < 8; round++ {
		batch(n+1, n/2)
	}
	got := snapshot(a)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("batch A slot %d changed after later batches:\nwant %v\ngot  %v", i, want[i], got[i])
		}
	}
}

// splitGroup returns profiles that share one east owner (so a batch
// over them is one group) and are split across two west owners, in a
// 2x2 east/west cluster.
func splitGroup(t *testing.T, c *Client) (string, []model.ProfileID) {
	t.Helper()
	eastOwner := c.route("east", 1)
	var ids []model.ProfileID
	westOwners := make(map[string]bool)
	for id := model.ProfileID(1); id <= 1000; id++ {
		if c.route("east", id) != eastOwner {
			continue
		}
		ids = append(ids, id)
		westOwners[c.route("west", id)] = true
		if len(westOwners) == 2 && len(ids) >= 4 {
			return eastOwner, ids
		}
	}
	t.Fatalf("degenerate routing: %d west owners for %v", len(westOwners), ids)
	return "", nil
}

// TestBatchHedgePlanFollowsOwners pins where a slow batch group's hedge
// goes: each sub-query to its owner in another region (writes land on
// one owner per region, so only that instance holds the sub-query's
// acknowledged writes), one hedge RPC per such owner.
func TestBatchHedgePlanFollowsOwners(t *testing.T) {
	cl, _ := newCluster(t, []string{"east", "west"}, 2)
	c := newClient(t, cl, "east")
	regions := c.regionsSnapshot()
	if len(regions) != 2 || regions[0] != "east" {
		t.Fatalf("regions = %v", regions)
	}
	eastOwner, ids := splitGroup(t, c)
	subs := make([]wire.SubQuery, len(ids))
	idxs := make([]int, len(ids))
	for i, id := range ids {
		subs[i], idxs[i] = batchSub(id), i
	}
	tried := make([]triedSet, len(subs))
	primary := batchTarget{region: "east", addr: eastOwner}

	parts := c.hedgePlan(regions, subs, idxs, tried, primary)
	if len(parts) != 2 {
		t.Fatalf("hedge split into %d parts, want one per west owner: %+v", len(parts), parts)
	}
	covered := 0
	for _, hp := range parts {
		if hp.tgt.region != "west" {
			t.Fatalf("hedge part sent to %+v, want the west region", hp.tgt)
		}
		for _, pos := range hp.pos {
			if owner := c.route("west", ids[pos]); owner != hp.tgt.addr {
				t.Fatalf("profile %d hedged to %s, its west owner is %s", ids[pos], hp.tgt.addr, owner)
			}
			covered++
		}
	}
	if covered != len(ids) {
		t.Fatalf("hedge covers %d of %d sub-queries", covered, len(ids))
	}
	// A sub-query whose west owner was already tried has no admissible
	// owner elsewhere: the group is not hedged.
	tried[0].add(c.route("west", ids[0]))
	if parts := c.hedgePlan(regions, subs, idxs, tried, primary); parts != nil {
		t.Fatalf("group with an exhausted sub-query hedged: %+v", parts)
	}
}

// TestHedgeFirstPrefersOtherRegionOwner pins the single read's hedge
// order: the owner in another region moves ahead of the primary
// region's ring successor, which holds an acked write only once the
// owner has flushed it.
func TestHedgeFirstPrefersOtherRegionOwner(t *testing.T) {
	cl, _ := newCluster(t, []string{"east", "west"}, 2)
	c := newClient(t, cl, "east")
	const id = model.ProfileID(7)
	cands := c.candidates(id)
	if len(cands) < 3 || cands[0].region != "east" || cands[1].region != "east" {
		t.Fatalf("ladder = %+v, want the east owner and successor first", cands)
	}
	c.hedgeFirst(cands, 1, "east", id)
	if cands[1].region != "west" || cands[1].addr != c.route("west", id) {
		t.Fatalf("hedge candidate = %+v, want the west owner %s", cands[1], c.route("west", id))
	}
}

// TestBatchHedgeWinsAfterPrimaryFails pins the group outcome when the
// primary fails while its hedge is still in flight: the hedge's later
// success must be the group's answer, with no error left over from the
// primary.
func TestBatchHedgeWinsAfterPrimaryFails(t *testing.T) {
	cl, clock := newCluster(t, []string{"east", "west"}, 1)
	c, err := New(Options{
		Caller: "test", Service: "ips", Region: "east", Registry: cl.Registry,
		RefreshInterval: time.Hour, CallTimeout: 2 * time.Second,
		HedgeDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	const n = 4
	for id := model.ProfileID(1); id <= n; id++ {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: clock.Now() - 1000, Slot: 1, Type: 1, FID: 9, Counts: []int64{int64(id), 0},
		}); err != nil {
			t.Fatal(err)
		}
	}
	forceVisible(cl)
	var east, west *cluster.Node
	for _, nd := range cl.Nodes() {
		if nd.Region == "east" {
			east = nd
		} else {
			west = nd
		}
	}
	// The primary (east) stalls until its server closes at 100ms,
	// failing the call; the hedge (west, issued at 10ms) answers at about
	// 210ms.
	east.Service().RPC().SetDelay(func(string) time.Duration { return time.Second })
	west.Service().RPC().SetDelay(func(string) time.Duration { return 200 * time.Millisecond })
	go func() {
		time.Sleep(100 * time.Millisecond)
		east.Service().Close()
	}()
	subs := make([]wire.SubQuery, 0, n)
	for id := model.ProfileID(1); id <= n; id++ {
		subs = append(subs, batchSub(id))
	}
	resps, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatalf("QueryBatch: %v (resilience %+v)", err, c.Resilience())
	}
	for i, r := range resps {
		if len(r.Features) != 1 || r.Features[0].Counts[0] != int64(i+1) {
			t.Fatalf("slot %d: %+v", i, r.Features)
		}
	}
	if c.HedgeWins.Value() != 1 {
		t.Fatalf("HedgeWins = %d, want 1", c.HedgeWins.Value())
	}
}

// TestBatchSplitHedgeAnswersGroup stalls a group's primary so its hedge
// fires, split across the two west owners of the group's profiles: the
// group must be answered from the hedge parts, each slot with its own
// profile's features.
func TestBatchSplitHedgeAnswersGroup(t *testing.T) {
	cl, clock := newCluster(t, []string{"east", "west"}, 2)
	c, err := New(Options{
		Caller: "test", Service: "ips", Region: "east", Registry: cl.Registry,
		RefreshInterval: time.Hour, CallTimeout: 2 * time.Second,
		HedgeDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	eastOwner, ids := splitGroup(t, c)
	var subs []wire.SubQuery
	for _, id := range ids {
		if err := c.Add("up", id, wire.AddEntry{
			Timestamp: clock.Now() - 1000, Slot: 1, Type: 1, FID: model.FeatureID(id), Counts: []int64{int64(id), 0},
		}); err != nil {
			t.Fatal(err)
		}
		subs = append(subs, batchSub(id))
	}
	forceVisible(cl)
	for _, nd := range cl.Nodes() {
		if nd.Addr == eastOwner {
			nd.Service().RPC().SetDelay(func(string) time.Duration { return 300 * time.Millisecond })
		}
	}
	resps, err := c.QueryBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if len(r.Features) != 1 || r.Features[0].FID != model.FeatureID(ids[i]) {
			t.Fatalf("slot %d (profile %d): %+v", i, ids[i], r.Features)
		}
	}
	if h, w := c.Hedges.Value(), c.HedgeWins.Value(); h != 2 || w != 1 {
		t.Fatalf("Hedges=%d HedgeWins=%d, want 2 parts winning once", h, w)
	}
}
