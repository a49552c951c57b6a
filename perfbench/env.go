package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/client"
	"ips/internal/config"
	"ips/internal/discovery"
	"ips/internal/gcache"
	"ips/internal/kv"
	"ips/internal/model"
	"ips/internal/server"
	"ips/internal/wal"
	"ips/internal/wire"
	"ips/internal/workload"
)

const (
	table  = "user_profile"
	caller = "perfbench"
	// epoch is the instance's frozen clock. Every instance of a run, the
	// reference included, answers queries at the same "now", so windowed
	// and decayed results are comparable across instances and reads.
	epoch model.Millis = 1_700_000_000_000
	// writeTS stamps every measured-phase write: one second before now.
	// All of them land in each profile's head slice, so no profile grows
	// past the compaction threshold during a run.
	writeTS = epoch - 1000
)

var actions = []string{"like", "comment", "share"}

// countingStore wraps the in-memory KV store as server.Options.Store. It
// counts gets, absent gets and set bytes in every run, tracks the live
// value bytes per key, and times gets only while timing is on (the
// traced phase).
type countingStore struct {
	*kv.Memory

	gets, absent, sets, setBytes atomic.Int64
	// absentProfiles counts absent whole-profile keys: one per cache
	// load of a never-written profile (the load then also misses the
	// fine-grained meta key).
	absentProfiles atomic.Int64
	timing         atomic.Bool

	mu        sync.Mutex
	getNs     []int64
	live      map[string]int
	liveBytes int64
}

func newCountingStore() *countingStore {
	return &countingStore{Memory: kv.NewMemory(), live: make(map[string]int)}
}

func (s *countingStore) noteGet(key string, start time.Time, timed bool, err error) {
	s.gets.Add(1)
	if errors.Is(err, kv.ErrNotFound) {
		s.absent.Add(1)
		if strings.HasPrefix(key, table+"/p/") {
			s.absentProfiles.Add(1)
		}
	}
	if timed {
		d := int64(time.Since(start))
		s.mu.Lock()
		s.getNs = append(s.getNs, d)
		s.mu.Unlock()
	}
}

func (s *countingStore) noteSet(key string, n int) {
	s.sets.Add(1)
	s.setBytes.Add(int64(n))
	s.mu.Lock()
	s.liveBytes += int64(n - s.live[key])
	s.live[key] = n
	s.mu.Unlock()
}

// Get implements kv.Store.
func (s *countingStore) Get(key string) ([]byte, error) {
	timed := s.timing.Load()
	var start time.Time
	if timed {
		start = time.Now()
	}
	v, err := s.Memory.Get(key)
	s.noteGet(key, start, timed, err)
	return v, err
}

// XGet implements kv.Store.
func (s *countingStore) XGet(key string) ([]byte, kv.Version, error) {
	timed := s.timing.Load()
	var start time.Time
	if timed {
		start = time.Now()
	}
	v, ver, err := s.Memory.XGet(key)
	s.noteGet(key, start, timed, err)
	return v, ver, err
}

// Set implements kv.Store.
func (s *countingStore) Set(key string, value []byte) error {
	if err := s.Memory.Set(key, value); err != nil {
		return err
	}
	s.noteSet(key, len(value))
	return nil
}

// XSet implements kv.Store.
func (s *countingStore) XSet(key string, value []byte, expected kv.Version) (kv.Version, error) {
	ver, err := s.Memory.XSet(key, value, expected)
	if err == nil {
		s.noteSet(key, len(value))
	}
	return ver, err
}

// Delete implements kv.Store.
func (s *countingStore) Delete(key string) error {
	if err := s.Memory.Delete(key); err != nil {
		return err
	}
	s.mu.Lock()
	s.liveBytes -= int64(s.live[key])
	delete(s.live, key)
	s.mu.Unlock()
	return nil
}

// probe times one direct get of id's whole-profile key: the ladder's
// storage step, timed on every workload. It is not counted as a get.
func (s *countingStore) probe(id model.ProfileID) {
	key := table + "/p/" + strconv.FormatUint(id, 16)
	t0 := time.Now()
	_, _ = s.Memory.Get(key) // an absent key is a valid, timed probe
	d := int64(time.Since(t0))
	s.mu.Lock()
	s.getNs = append(s.getNs, d)
	s.mu.Unlock()
}

// LiveBytes returns the value bytes currently stored.
func (s *countingStore) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.liveBytes
}

// takeGetNs returns and clears the timed get samples.
func (s *countingStore) takeGetNs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.getNs
	s.getNs = nil
	return out
}

// instanceSpec is the server configuration of one workload.
type instanceSpec struct {
	cache   gcache.Options
	journal string // journal path; empty = no journal
}

// env is one instance behind loopback RPC, reached by one client, as
// the repository's bench.Env builds it — with the counting store, the
// frozen clock and an optional journal.
type env struct {
	store   *countingStore
	cfgs    *config.Store
	inst    *server.Instance
	svc     *server.Service
	cl      *client.Client
	addr    string
	journal *wal.Journal
	// memLimit is the decoded tier's budget; 0 = unbounded.
	memLimit int64
	// feats[id-1] lists profile id's prefilled features.
	feats [][]feature
	// entries counts every entry ever written, prefill included.
	entries atomic.Int64
}

// newEnv builds the instance with write isolation off, so prefill lands
// directly and deterministically; the read workloads turn it on after.
func newEnv(spec instanceSpec) (*env, error) {
	cfg := config.Default()
	cfg.WriteIsolation = false
	cfgs, err := config.NewStore(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{store: newCountingStore(), cfgs: cfgs, memLimit: spec.cache.MemLimit}
	if spec.journal != "" {
		e.journal, err = wal.Open(spec.journal, wal.Options{SyncEvery: 0})
		if err != nil {
			return nil, err
		}
	}
	e.inst, err = server.New(server.Options{
		Name: "perfbench-0", Region: "local",
		Store: e.store, Config: cfgs, Cache: spec.cache, Journal: e.journal,
		Clock: func() model.Millis { return epoch },
	})
	if err != nil {
		e.closeJournal()
		return nil, err
	}
	if err := e.inst.CreateTable(table, model.NewSchema(actions...)); err != nil {
		e.close()
		return nil, err
	}
	e.svc = server.NewService(e.inst)
	if e.addr, err = e.svc.Listen("127.0.0.1:0"); err != nil {
		e.close()
		return nil, err
	}
	reg := discovery.NewRegistry(time.Minute)
	reg.Register(discovery.Instance{Service: "ips", Addr: e.addr, Region: "local"})
	e.cl, err = client.New(client.Options{
		Caller: caller, Service: "ips", Region: "local",
		Registry: reg, CallTimeout: 5 * time.Second, Seed: 1,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) closeJournal() {
	if e.journal != nil {
		_ = e.journal.Close() // teardown after measuring; nothing to report
		e.journal = nil
	}
}

// close tears the environment down; errors are dropped because the
// measurements are already taken.
func (e *env) close() {
	if e.cl != nil {
		_ = e.cl.Close()
	}
	if e.svc != nil {
		_ = e.svc.Close()
	}
	_ = e.inst.Close()
	e.closeJournal()
	_ = e.store.Close()
}

// setIsolation switches write isolation, as ipsd's -write-isolation does.
func (e *env) setIsolation(on bool) error {
	return e.cfgs.Mutate(func(c *config.Config) { c.WriteIsolation = on })
}

// prefillStamps is how many distinct timestamps a profile's history
// spreads over: few enough slices that no profile crosses the
// compaction threshold (16) even with a head slice added.
const prefillStamps = 8

// genSlots and genTypes are the slots and types every generator draws
// from: few enough that a read's slot and type select several of a
// profile's features rather than almost none of them.
const genSlots, genTypes = 2, 2

// genOptions shapes every request generator of a run.
func genOptions(seed int64, profiles int, zipf float64) workload.Options {
	return workload.Options{
		Seed: seed, Profiles: uint64(profiles), ZipfS: zipf,
		Slots: genSlots, Types: genTypes, Actions: len(actions),
	}
}

// feature is one (slot, type, fid) of a prefilled profile.
type feature struct {
	slot, typ uint8
	fid       uint32
}

// prefillEntries generates one profile's history: per entries over the
// last 24 hours. Every profile gets the same shape — per distinct
// features dealt evenly over the slots, types and timestamps — and only
// feature ids and counts come from the generator. A read then costs the
// same whichever profile it hits, so the few most popular profiles,
// which serve a large share of Zipf reads, do not make one seed's run
// cheaper than another's. The same generator state gives the same
// history, so a reference instance can be prefilled identically.
func prefillEntries(gen *workload.Generator, per int) []wire.AddEntry {
	out := make([]wire.AddEntry, per)
	for j := range out {
		en := gen.WriteEntry(epoch)
		en.Timestamp = epoch - model.Millis(j%prefillStamps)*(24*3_600_000/prefillStamps) - 1
		en.Slot = model.SlotID(j % genSlots)
		en.Type = model.TypeID(j / genSlots % genTypes)
		en.FID = en.FID*model.FeatureID(per) + model.FeatureID(j) // distinct within the profile
		out[j] = en
	}
	return out
}

// prefill writes history for profiles 1..n in process and keeps each
// profile's features, which measured writes reuse. With a memory limit it
// evicts to the watermark every chunk profiles, so a corpus larger than
// the cache never sits fully decoded in memory.
func (e *env) prefill(seed int64, n, per, chunk int) error {
	gen := workload.New(genOptions(seed, n, 0))
	e.feats = make([][]feature, n)
	for id := 1; id <= n; id++ {
		entries := prefillEntries(gen, per)
		fs := make([]feature, len(entries))
		for k, en := range entries {
			fs[k] = feature{uint8(en.Slot), uint8(en.Type), uint32(en.FID)}
		}
		e.feats[id-1] = fs
		if err := e.inst.Add(caller, table, model.ProfileID(id), entries); err != nil {
			return fmt.Errorf("prefill profile %d: %w", id, err)
		}
		e.entries.Add(int64(len(entries)))
		if chunk > 0 && id%chunk == 0 {
			if err := e.inst.EvictToWatermark(table); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushAll persists every dirty profile once eviction is idle.
// GCache.FlushAll holds a table shard's read lock while flushOne takes
// the same lock again, so an eviction that queues for that shard's write
// lock in between deadlocks both. Eviction runs only while usage is above
// the low-water mark, so this first drives usage down to it and lets the
// swap loop's pass end; the load must already be stopped.
func (e *env) flushAll() error {
	if lim := e.memLimit; lim > 0 {
		low := lim * 9 / 10
		for i := 0; i < 100 && e.cacheStats().Usage > low; i++ {
			if err := e.inst.EvictToWatermark(table); err != nil {
				return err
			}
			time.Sleep(10 * time.Millisecond)
		}
		time.Sleep(250 * time.Millisecond)
	}
	return e.inst.FlushAll()
}

// cacheStats reads the table's GCache counters.
func (e *env) cacheStats() gcache.Stats {
	st, _ := e.inst.CacheStats(table) // the table exists for the env's lifetime
	return st
}

// kvBytesPerEntry flushes every dirty profile and divides the KV value
// bytes by the number of entries ever written.
func (e *env) kvBytesPerEntry() (float64, error) {
	e.inst.MergeAll()
	if err := e.flushAll(); err != nil {
		return 0, err
	}
	return ratio(float64(e.store.LiveBytes()), float64(e.entries.Load())), nil
}
