package gcache

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/persist"
	"ips/internal/wire"
)

func newCache(t testing.TB, opts Options) (*GCache, *model.Table, kv.Store) {
	t.Helper()
	store := kv.NewMemory()
	tbl := model.NewTable("t", model.NewSchema("like", "share"), 1000)
	ps := persist.New(store, "t")
	g, err := New(tbl, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g, tbl, store
}

func TestOptionsValidation(t *testing.T) {
	_, _, _ = newCache(t, Options{}) // defaults fill in
	store := kv.NewMemory()
	tbl := model.NewTable("t", model.NewSchema("n"), 1000)
	ps := persist.New(store, "t")
	if _, err := New(tbl, ps, Options{DirtyShards: 4, FlushThreads: 6}); err == nil {
		t.Fatal("non-multiple FlushThreads should be rejected")
	}
}

func TestAddAndGetHit(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	p, hit, err := g.Get(1)
	if err != nil || p == nil {
		t.Fatalf("Get: %v", err)
	}
	if !hit {
		t.Fatal("resident profile should be a hit")
	}
	if g.HitRatio.Total() == 0 {
		t.Fatal("hit ratio not recorded")
	}
}

func TestGetUnknownProfile(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	p, hit, err := g.Get(99)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil || hit {
		t.Fatal("unknown profile should return nil, miss")
	}
}

func TestMissFillsFromStorage(t *testing.T) {
	g, tbl, _ := newCache(t, Options{})
	if err := g.Add(5, 5000, 1, 1, 7, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := g.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Drop from memory, keep in storage.
	p := tbl.Get(5)
	p.Lock()
	tbl.Delete(5)
	p.Unlock()
	g.forget(5)

	loadsBefore := g.Loads.Value()
	got, hit, err := g.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("should be a miss")
	}
	if got == nil {
		t.Fatal("profile should load from storage")
	}
	got.RLock()
	defer got.RUnlock()
	c := got.Slices()[0].Slot(1).Get(1).Get(7)
	if c == nil || c[0] != 3 {
		t.Fatalf("loaded counts = %v, want [3 0]", c)
	}
	if g.Loads.Value() != loadsBefore+1 {
		t.Fatalf("loads delta = %d, want 1", g.Loads.Value()-loadsBefore)
	}
}

func TestFlushThreadPersistsDirty(t *testing.T) {
	g, _, store := newCache(t, Options{FlushInterval: 10 * time.Millisecond})
	g.Start()
	defer g.Close()
	if err := g.Add(9, 5000, 1, 1, 7, []int64{1, 0}); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for store.Len() == 0 {
		select {
		case <-deadline:
			t.Fatal("flush thread never persisted the profile")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if g.Flushes.Value() == 0 {
		t.Fatal("flush counter not incremented")
	}
}

func TestFlushClearsDirtyOnlyWhenUnchanged(t *testing.T) {
	g, tbl, _ := newCache(t, Options{})
	_ = g.Add(2, 5000, 1, 1, 7, []int64{1, 0})
	g.flushOne(2)
	p := tbl.Get(2)
	p.RLock()
	dirty := p.Dirty
	p.RUnlock()
	if dirty {
		t.Fatal("flushed profile should be clean")
	}
	// Write again: dirty returns.
	_ = g.Add(2, 6000, 1, 1, 7, []int64{1, 0})
	p.RLock()
	dirty = p.Dirty
	p.RUnlock()
	if !dirty {
		t.Fatal("new write should re-dirty the profile")
	}
}

func TestEvictionRespectsMemLimit(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 20_000, MemLowWater: 15_000, LRUShards: 4})
	// Write enough distinct profiles to exceed the limit.
	for id := model.ProfileID(1); id <= 200; id++ {
		for j := 0; j < 5; j++ {
			if err := g.Add(id, model.Millis(1000+j*1000), 1, 1, model.FeatureID(j), []int64{1, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if g.Usage() <= 20_000 {
		t.Skip("setup did not exceed the limit")
	}
	g.EvictToWatermark()
	if g.Usage() > 20_000 {
		t.Fatalf("usage %d still above limit after eviction", g.Usage())
	}
	if g.Evictions.Value() == 0 {
		t.Fatal("no evictions recorded")
	}
	if tbl.Len() >= 200 {
		t.Fatal("no profiles evicted from table")
	}
}

func TestEvictionFlushesDirtyData(t *testing.T) {
	g, tbl, store := newCache(t, Options{MemLimit: 1, MemLowWater: 1})
	_ = g.Add(3, 5000, 1, 1, 7, []int64{9, 0})
	g.EvictToWatermark()
	if tbl.Get(3) != nil {
		t.Fatal("profile should be evicted")
	}
	if store.Len() == 0 {
		t.Fatal("dirty profile must be persisted before eviction")
	}
	// And it can be loaded back with its data.
	p, _, err := g.Get(3)
	if err != nil || p == nil {
		t.Fatalf("reload: %v", err)
	}
	p.RLock()
	defer p.RUnlock()
	if c := p.Slices()[0].Slot(1).Get(1).Get(7); c == nil || c[0] != 9 {
		t.Fatalf("reloaded counts = %v", c)
	}
}

func TestEvictionSkipsLockedEntries(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1, MemLowWater: 1, LRUShards: 1})
	_ = g.Add(1, 5000, 1, 1, 7, []int64{1, 0})
	_ = g.Add(2, 5000, 1, 1, 7, []int64{1, 0})

	// Hold profile 1's lock: the swap thread must skip it (Fig. 8) and
	// still evict profile 2.
	p1 := tbl.Get(1)
	p1.Lock()
	defer p1.Unlock()

	// Profile 1 is older in LRU (added first), so it is probed first.
	g.EvictToWatermark()
	if g.SwapSkips.Value() == 0 {
		t.Fatal("locked entry should be skipped via TryLock")
	}
	if tbl.Get(2) != nil && tbl.Get(1) != nil {
		t.Fatal("the unlocked profile should have been evicted")
	}
	if tbl.Get(1) == nil {
		t.Fatal("locked profile must not be evicted")
	}
}

func TestLRUOrderEviction(t *testing.T) {
	g, tbl, _ := newCache(t, Options{MemLimit: 1 << 40, LRUShards: 1})
	for id := model.ProfileID(1); id <= 3; id++ {
		_ = g.Add(id, 5000, 1, 1, 7, []int64{1, 0})
	}
	// Touch profile 1 so 2 becomes the coldest.
	if _, _, err := g.Get(1); err != nil {
		t.Fatal(err)
	}
	sh := g.lru[0]
	if ok, _ := g.evictBatch(sh); !ok {
		t.Fatal("eviction failed")
	}
	if tbl.Get(2) != nil {
		t.Fatal("LRU eviction should drop profile 2 (coldest)")
	}
	if tbl.Get(1) == nil || tbl.Get(3) == nil {
		t.Fatal("recently used profiles must survive")
	}
}

func TestHitRatioWithZipfWorkingSet(t *testing.T) {
	// Fig. 18's shape: with a Zipf access pattern and a cache that holds
	// a fraction of the corpus, the hit ratio should still be high.
	const limit = 800_000
	g, _, _ := newCache(t, Options{MemLimit: limit, MemLowWater: limit * 9 / 10, LRUShards: 8})
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 5000)
	for i := 0; i < 30_000; i++ {
		id := model.ProfileID(zipf.Uint64() + 1)
		if err := g.Add(id, model.Millis(1000+i), 1, 1, 7, []int64{1, 0}); err != nil {
			t.Fatal(err)
		}
		if i%20 == 0 {
			g.EvictToWatermark()
		}
	}
	g.EvictToWatermark()
	// Between eviction passes, misses reloading large hot profiles can
	// overshoot; bounded overshoot is the invariant.
	if g.Usage() > 2*limit {
		t.Fatalf("usage %d far above limit %d", g.Usage(), limit)
	}
	if r := g.HitRatio.Value(); r < 0.80 {
		t.Fatalf("hit ratio = %.3f, want >0.80 under Zipf", r)
	}
}

func TestConcurrentAddGetEvict(t *testing.T) {
	g, _, _ := newCache(t, Options{
		MemLimit: 100_000, MemLowWater: 80_000,
		FlushInterval: 5 * time.Millisecond, SwapInterval: 5 * time.Millisecond,
	})
	g.Start()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				id := model.ProfileID(rng.Intn(300) + 1)
				if err := g.Add(id, model.Millis(1000+i), 1, 1, model.FeatureID(i%50), []int64{1, 0}); err != nil {
					errs <- err
					return
				}
				if _, _, err := g.Get(id); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseFlushesEverything(t *testing.T) {
	g, _, store := newCache(t, Options{})
	g.Start()
	for id := model.ProfileID(1); id <= 20; id++ {
		_ = g.Add(id, 5000, 1, 1, 7, []int64{1, 0})
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 20 {
		t.Fatalf("store has %d profiles after close, want 20", store.Len())
	}
	if err := g.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestSingleFlightLoads(t *testing.T) {
	g, tbl, _ := newCache(t, Options{})
	_ = g.Add(1, 5000, 1, 1, 7, []int64{1, 0})
	_ = g.FlushAll()
	p := tbl.Get(1)
	p.Lock()
	tbl.Delete(1)
	p.Unlock()
	g.forget(1)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := g.Get(1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// With single-flight, concurrent misses coalesce to very few loads.
	if got := g.Loads.Value(); got > 3 {
		t.Fatalf("loads = %d; expected coalesced loads", got)
	}
}

func TestUsageAccountingConsistency(t *testing.T) {
	g, tbl, _ := newCache(t, Options{})
	for id := model.ProfileID(1); id <= 50; id++ {
		for j := 0; j < 10; j++ {
			_ = g.Add(id, model.Millis(1000+j*500), 1, 1, model.FeatureID(j), []int64{1, 0})
		}
	}
	var actual int64
	tbl.Each(func(p *model.Profile) bool {
		p.RLock()
		actual += p.MemSize()
		p.RUnlock()
		return true
	})
	if got := g.Usage(); got != actual {
		t.Fatalf("tracked usage %d != actual %d", got, actual)
	}
	// Per-shard bytes sum to the global usage.
	var shardSum int64
	for _, sh := range g.lru {
		shardSum += sh.bytes.Load()
	}
	if shardSum != actual {
		t.Fatalf("shard byte sum %d != actual %d", shardSum, actual)
	}
}

func TestStatsSnapshot(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	_ = g.Add(1, 5000, 1, 1, 7, []int64{1, 0})
	_, _, _ = g.Get(1)
	s := g.Stats()
	if s.Resident != 1 || s.Usage <= 0 || s.HitRatio <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNoteSizeChange(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	_ = g.Add(1, 5000, 1, 1, 7, []int64{1, 0})
	before := g.Usage()
	g.NoteSizeChange(1, -100)
	if g.Usage() != before-100 {
		t.Fatal("NoteSizeChange not applied")
	}
}

func TestLRUShardDistribution(t *testing.T) {
	// Regression: the old fold kept only 5 hash bits (>>59), so with more
	// than 32 shards the rest stayed permanently empty.
	for _, shards := range []int{16, 33, 64} {
		g, _, _ := newCache(t, Options{LRUShards: shards})
		const n = 4096
		for id := model.ProfileID(1); id <= n; id++ {
			g.touch(id, 1)
		}
		min, max := n, 0
		for _, sh := range g.lru {
			sh.mu.Lock()
			l := sh.ll.Len()
			sh.mu.Unlock()
			if l < min {
				min = l
			}
			if l > max {
				max = l
			}
		}
		if min == 0 {
			t.Fatalf("shards=%d: some LRU shards never receive profiles", shards)
		}
		mean := n / shards
		if max > 4*mean {
			t.Fatalf("shards=%d: unbalanced shard sizes min=%d max=%d mean=%d", shards, min, max, mean)
		}
	}
}

func TestOnApplyOrdersJournalWithMutation(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	var lsn uint64
	var logged [][]wire.AddEntry
	g.OnApply = func(_ context.Context, id model.ProfileID, entries []wire.AddEntry) (uint64, error) {
		lsn++
		logged = append(logged, entries)
		return lsn, nil
	}
	var flushed []uint64
	g.OnFlush = func(id model.ProfileID, l, merged uint64) { flushed = append(flushed, l) }

	entries := []wire.AddEntry{
		{Timestamp: 5000, Slot: 1, Type: 1, FID: 7, Counts: []int64{1, 0}},
		{Timestamp: 6000, Slot: 1, Type: 1, FID: 8, Counts: []int64{0, 2}},
	}
	if err := g.AddEntries(3, entries); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(3, 7000, 1, 1, 9, []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 2 {
		t.Fatalf("OnApply calls = %d, want 2", len(logged))
	}
	p, _, _ := g.Get(3)
	p.RLock()
	wal := p.WalLSN
	p.RUnlock()
	if wal != 2 {
		t.Fatalf("WalLSN = %d, want 2", wal)
	}
	if err := g.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 1 || flushed[0] != 2 {
		t.Fatalf("OnFlush lsns = %v, want [2]", flushed)
	}
}

func TestOnApplyErrorAbortsWrite(t *testing.T) {
	g, tbl, _ := newCache(t, Options{})
	wantErr := fmt.Errorf("journal down")
	g.OnApply = func(context.Context, model.ProfileID, []wire.AddEntry) (uint64, error) { return 0, wantErr }
	if err := g.Add(1, 5000, 1, 1, 7, []int64{1, 0}); err != wantErr {
		t.Fatalf("err = %v, want journal error", err)
	}
	p := tbl.Get(1)
	p.RLock()
	defer p.RUnlock()
	if p.NumFeatures() != 0 || p.Dirty {
		t.Fatal("write applied despite journal failure")
	}
}

func TestApplyLoggedSkipsBelowWatermark(t *testing.T) {
	g, _, _ := newCache(t, Options{})
	e := []wire.AddEntry{{Timestamp: 5000, Slot: 1, Type: 1, FID: 7, Counts: []int64{1, 0}}}
	applied, err := g.ApplyLogged(1, e, 3, false)
	if err != nil || !applied {
		t.Fatalf("ApplyLogged(3) = %v, %v", applied, err)
	}
	// Replaying the same or an older LSN is a no-op.
	applied, err = g.ApplyLogged(1, e, 3, false)
	if err != nil || applied {
		t.Fatalf("replay of lsn 3 applied twice")
	}
	applied, err = g.ApplyLogged(1, e, 4, false)
	if err != nil || !applied {
		t.Fatalf("ApplyLogged(4) = %v, %v", applied, err)
	}
	p, _, _ := g.Get(1)
	p.RLock()
	defer p.RUnlock()
	if got := p.Slices()[0].Slot(1).Get(1).Get(7)[0]; got != 2 {
		t.Fatalf("counts[0] = %d, want 2 (two applied records)", got)
	}
}

func BenchmarkCacheHitGet(b *testing.B) {
	g, _, _ := newCache(b, Options{})
	for id := model.ProfileID(1); id <= 1000; id++ {
		_ = g.Add(id, 5000, 1, 1, 7, []int64{1, 0})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := g.Get(model.ProfileID(i%1000 + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCacheAdd(b *testing.B) {
	g, _, _ := newCache(b, Options{})
	counts := []int64{1, 0}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := g.Add(model.ProfileID(i%1000+1), model.Millis(1000+i), 1, 1, model.FeatureID(i%100), counts); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf

// TestFlushAllDuringEvictionStorm pins FlushAll against concurrent
// eviction: FlushAll must not hold a table shard's read lock while it
// flushes, because the flush re-takes that lock and an evicting
// Table.Delete queued in between would block both forever. Writers keep
// profiles dirty and evictors keep deleting while FlushAll loops; the
// whole storm must finish inside the deadline.
func TestFlushAllDuringEvictionStorm(t *testing.T) {
	g, _, _ := newCache(t, Options{MemLimit: 4_000, MemLowWater: 2_000, LRUShards: 2})
	const profiles = 64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := model.ProfileID(i%profiles + 1)
				_ = g.Add(id, model.Millis(1000+i), 1, 1, model.FeatureID(w), []int64{1, 0})
			}
		}(w)
	}
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g.EvictToWatermark()
			}
		}()
	}
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 300 && err == nil; i++ {
			err = g.FlushAll()
		}
		done <- err
	}()
	select {
	case err := <-done:
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("FlushAll: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("FlushAll deadlocked against a concurrent eviction storm")
	}
}
