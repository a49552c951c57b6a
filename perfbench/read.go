package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ips/internal/gcache"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/wire"
	"ips/internal/workload"
)

// readSpec shapes one closed-loop read workload.
type readSpec struct {
	profiles   int     // corpus: profiles 1..profiles are prefilled
	perProfile int     // prefill entries per profile, over the last 24h
	zipf       float64 // popularity skew of every drawn profile id
	// absentShare of reads target one of absentIDs profiles that are
	// never written (cold-start users).
	absentShare float64
	absentIDs   int
	cache       gcache.Options
	// warmupOps per caller run before measuring, after prefill.
	warmupOps int
	// reference replays the run's writes into an unbounded instance and
	// compares sampled results against it.
	reference bool
}

// The closed-loop mix shared by both read workloads.
const (
	readCallers  = 2
	readFraction = 10.0 / 11.0 // 10:1 reads:writes (§IV-C)
	batchShare   = 0.1         // of reads; the rest are single reads
	batchSize    = 32
	// traceEvery: in the traced phase every traceEvery-th single read,
	// batch and write leaves the client path for a ladder step.
	traceEvery = 8
)

var residentSpec = readSpec{
	profiles: 10_000, perProfile: 16, zipf: 1.2, warmupOps: 4000,
}

var tieredSpec = readSpec{
	profiles: 20_000, perProfile: 16, zipf: 1.01,
	absentShare: 0.05, absentIDs: 4096,
	cache:     gcache.Options{MemLimit: 8 * mib, WarmLimit: 2 * mib},
	warmupOps: 5000, reference: true,
}

// loggedWrite is one write applied during the run, kept for the
// reference replay.
type loggedWrite struct {
	id    model.ProfileID
	entry wire.AddEntry
}

// ladder holds the traced phase's per-step samples.
type ladder struct {
	clientNs, rpcNs, serverNs []int64 // single reads, one step each
	encNs, decNs              []int64 // the rpc step's own encode/decode
	batchBytes                []int64 // ips.query_batch_v2 response sizes
	addNs                     []int64 // Instance.AddCtx
}

func (l *ladder) merge(o *ladder) {
	l.clientNs = append(l.clientNs, o.clientNs...)
	l.rpcNs = append(l.rpcNs, o.rpcNs...)
	l.serverNs = append(l.serverNs, o.serverNs...)
	l.encNs = append(l.encNs, o.encNs...)
	l.decNs = append(l.decNs, o.decNs...)
	l.batchBytes = append(l.batchBytes, o.batchBytes...)
	l.addNs = append(l.addNs, o.addNs...)
}

// readOut is one caller's (or the merged) measured-phase output. Its
// windows hold single-read (primary) and batch (secondary) latencies.
type readOut struct {
	w                 *windows
	lagNs             []int64
	ops, writes, errs int64
	lad               ladder
}

// readCaller is one closed-loop caller: it sends its next request only
// after the previous reply, like a ranking worker.
type readCaller struct {
	spec   *readSpec
	e      *env
	rc     *rpc.Client // bench-owned connection for the traced rpc step
	gen    *workload.Generator
	rng    *rand.Rand
	subs   []wire.SubQuery
	sc     query.Scratch
	resp   wire.QueryResponse
	n      [3]int64 // single reads, batches, writes issued
	writes []loggedWrite
	// prevEnd is when the previous reply arrived: a closed-loop request
	// is due then, so sending later is the generator's own lateness.
	prevEnd time.Time
}

// sending records the generator's lateness just before a request goes
// out, after its inputs were drawn.
func (c *readCaller) sending(out *readOut) {
	if out != nil && !c.prevEnd.IsZero() {
		out.lagNs = append(out.lagNs, int64(time.Since(c.prevEnd)))
	}
}

func newReadCaller(spec *readSpec, e *env, rc *rpc.Client, seed int64) *readCaller {
	return &readCaller{
		spec: spec, e: e, rc: rc,
		gen:  workload.New(genOptions(seed, spec.profiles, spec.zipf)),
		rng:  rand.New(rand.NewSource(seed ^ 0x5eed)),
		subs: make([]wire.SubQuery, batchSize),
	}
}

// drawQuery draws one read request: a Zipf-popular profile, or with
// absentShare a never-written one.
func drawQuery(spec *readSpec, gen *workload.Generator, rng *rand.Rand) *wire.QueryRequest {
	q := gen.Query(table)
	if spec.absentShare > 0 && rng.Float64() < spec.absentShare {
		q.ProfileID = model.ProfileID(spec.profiles + 1 + rng.Intn(spec.absentIDs))
	}
	q.Caller = caller
	return q
}

// readMethod names the single-read method a request's fields select.
func readMethod(q *wire.QueryRequest) (string, wire.BatchOp) {
	switch {
	case q.Decay != query.DecayNone:
		return wire.MethodDecay, wire.OpDecay
	case q.MinCount > 0:
		return wire.MethodFilter, wire.OpFilter
	}
	return wire.MethodTopK, wire.OpTopK
}

// clientRead issues q through the unified client's matching method.
func (e *env) clientRead(q *wire.QueryRequest) (*wire.QueryResponse, error) {
	switch m, _ := readMethod(q); m {
	case wire.MethodDecay:
		return e.cl.Decay(q)
	case wire.MethodFilter:
		return e.cl.Filter(q)
	}
	return e.cl.TopK(q)
}

// step issues one request of the mix and records it in out (nil during
// warm-up). In the traced phase a sample of requests is served by a
// ladder step instead of the client.
func (c *readCaller) step(out *readOut, traced bool) {
	var err error
	r := c.rng.Float64()
	switch {
	case r >= readFraction:
		err = c.write(out, traced)
	case r < readFraction*batchShare:
		err = c.batch(out, traced)
	default:
		err = c.single(out, traced)
	}
	c.prevEnd = time.Now()
	if out != nil {
		out.ops++
		if err != nil {
			out.errs++
		} else if i := out.w.index(c.prevEnd); i >= 0 {
			out.w.ops[i]++
		}
	}
}

func (c *readCaller) single(out *readOut, traced bool) error {
	q := drawQuery(c.spec, c.gen, c.rng)
	k := c.n[0]
	c.n[0]++
	c.sending(out)
	if traced && k%traceEvery == 0 {
		if (k/traceEvery)%2 == 0 {
			return rpcStep(c.rc, q, &out.lad)
		}
		t0 := time.Now()
		err := c.e.inst.QueryInto(context.Background(), q, &c.resp, &c.sc)
		out.lad.serverNs = append(out.lad.serverNs, int64(time.Since(t0)))
		c.e.store.probe(q.ProfileID)
		return err
	}
	t0 := time.Now()
	_, err := c.e.clientRead(q)
	if out != nil && err == nil {
		t1 := time.Now()
		d := int64(t1.Sub(t0))
		if i := out.w.index(t1); i >= 0 {
			out.w.a[i] = append(out.w.a[i], d)
		}
		if traced {
			out.lad.clientNs = append(out.lad.clientNs, d)
		}
	}
	return err
}

func (c *readCaller) fillBatch() {
	for i := range c.subs {
		q := drawQuery(c.spec, c.gen, c.rng)
		_, op := readMethod(q)
		c.subs[i] = wire.SubQuery{Op: op, Query: *q}
	}
}

func (c *readCaller) batch(out *readOut, traced bool) error {
	c.fillBatch()
	k := c.n[1]
	c.n[1]++
	c.sending(out)
	if traced && k%traceEvery == 0 {
		raw, err := c.rc.Call(wire.MethodQueryBatchV2,
			wire.EncodeQueryBatch(&wire.BatchQueryRequest{Caller: caller, Subs: c.subs}))
		if err != nil {
			return err
		}
		out.lad.batchBytes = append(out.lad.batchBytes, int64(len(raw)))
		_, err = wire.DecodeQueryBatchResponseV2(raw)
		return err
	}
	t0 := time.Now()
	_, err := c.e.cl.QueryBatch(c.subs)
	if out != nil && err == nil {
		t1 := time.Now()
		if i := out.w.index(t1); i >= 0 {
			out.w.b[i] = append(out.w.b[i], int64(t1.Sub(t0)))
		}
	}
	return err
}

// write adds one entry to a Zipf-drawn profile. It counts one more event
// on one of the profile's prefilled features: were writes to bring new
// features, the Zipf head would grow by hundreds per second and the
// per-read cost with it, so no two seconds of a run would be alike.
func (c *readCaller) write(out *readOut, traced bool) error {
	id := c.gen.ProfileID()
	en := c.gen.WriteEntry(epoch)
	fs := c.e.feats[id-1]
	f := fs[c.rng.Intn(len(fs))]
	en.Timestamp, en.Slot, en.Type, en.FID = writeTS, model.SlotID(f.slot), model.TypeID(f.typ), model.FeatureID(f.fid)
	k := c.n[2]
	c.n[2]++
	c.sending(out)
	var err error
	if traced && k%traceEvery == 0 {
		t0 := time.Now()
		err = c.e.inst.AddCtx(context.Background(), caller, table, id, []wire.AddEntry{en})
		out.lad.addNs = append(out.lad.addNs, int64(time.Since(t0)))
	} else {
		err = c.e.cl.Add(table, id, en)
	}
	if err != nil {
		return err
	}
	c.e.entries.Add(1)
	if out != nil {
		out.writes++
	}
	if c.spec.reference {
		c.writes = append(c.writes, loggedWrite{id, en})
	}
	return nil
}

// runCallers runs every caller until the deadline (or for ops steps
// each when ops > 0) and merges their outputs.
func runCallers(callers []*readCaller, dur time.Duration, ops int, traced bool) readOut {
	outs := make([]readOut, len(callers))
	start := time.Now()
	deadline := start.Add(dur)
	for i := range outs {
		outs[i].w = newWindows(start, dur)
	}
	all := readOut{w: newWindows(start, dur)}
	stopSteal := all.w.meterSteal()
	var wg sync.WaitGroup
	for i, c := range callers {
		wg.Add(1)
		go func(c *readCaller, out *readOut) {
			defer wg.Done()
			if ops > 0 {
				for j := 0; j < ops; j++ {
					c.step(nil, false)
				}
				return
			}
			c.prevEnd = time.Time{}
			for time.Now().Before(deadline) {
				c.step(out, traced)
			}
		}(c, &outs[i])
	}
	wg.Wait()
	stopSteal()
	for i := range outs {
		o := &outs[i]
		all.w.merge(o.w)
		all.lagNs = append(all.lagNs, o.lagNs...)
		all.ops += o.ops
		all.writes += o.writes
		all.errs += o.errs
		all.lad.merge(&o.lad)
	}
	return all
}

// readRun is one built environment with its callers.
type readRun struct {
	e       *env
	rc      *rpc.Client
	callers []*readCaller
}

func (r *readRun) close() {
	_ = r.rc.Close()
	r.e.close()
}

// setupRead builds, prefills and warms one environment: the set-up that
// setup_s times.
func setupRead(spec *readSpec, seed int64) (*readRun, error) {
	e, err := newEnv(instanceSpec{cache: spec.cache})
	if err != nil {
		return nil, err
	}
	chunk := 0
	if spec.cache.MemLimit > 0 {
		chunk = 2000
	}
	t0 := time.Now()
	if err := e.prefill(seed, spec.profiles, spec.perProfile, chunk); err != nil {
		e.close()
		return nil, err
	}
	logf("prefill %v", time.Since(t0))
	if err := e.flushAll(); err != nil {
		e.close()
		return nil, err
	}
	if err := e.setIsolation(true); err != nil {
		e.close()
		return nil, err
	}
	rc := rpc.NewClient(e.addr)
	rc.PoolSize = 1
	rc.CallTimeout = 5 * time.Second
	r := &readRun{e: e, rc: rc}
	for i := 0; i < readCallers; i++ {
		r.callers = append(r.callers, newReadCaller(spec, e, rc, seed*1000+int64(i)+1))
	}
	t0 = time.Now()
	runCallers(r.callers, 0, spec.warmupOps, false)
	logf("warm-up %v: %+v", time.Since(t0), e.cacheStats())
	return r, nil
}

// runRead runs a closed-loop read workload.
func runRead(o runOpts, spec readSpec) (*result, error) {
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []time.Duration
	var r *readRun
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		if r, err = setupRead(&spec, o.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer r.close()
	e := r.e

	res := &result{Metrics: map[string]metric{}}
	before := e.snap()
	out := runCallers(r.callers, o.measure, 0, false)
	after := e.snap()
	res.Attempted += out.ops
	res.Failed += out.errs
	out.w.log("read")
	logPhase(before, after, out.ops)
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }

	if !o.trace {
		put("setup_s", medianSeconds(setups), "s")
		put("throughput_ops", out.w.cpuRate(), "1/s")
		put("primary_p50_us", out.w.quantileUs(out.w.a, 0.5), "us")
		put("primary_p90_us", out.w.quantileUs(out.w.a, 0.9), "us")
		put("secondary_p50_us", out.w.quantileUs(out.w.b, 0.5), "us")
		put("secondary_p90_us", out.w.quantileUs(out.w.b, 0.9), "us")
		// The swap loop trims the decoded tier to its watermark within a
		// 100ms pass; trimming first measures the heap at that level and
		// not wherever the last pass happened to stop.
		if err := e.inst.EvictToWatermark(table); err != nil {
			return nil, err
		}
		// The latency samples are the benchmark's, not the program's.
		out.w, out.lagNs = nil, nil
		put("heap_inuse_mb", heapInuseMB(), "MiB")
		b, err := e.kvBytesPerEntry()
		if err != nil {
			return nil, err
		}
		put("kv_bytes_per_entry", b, "B")
	} else {
		untracedP50 := out.w.quantileUs(out.w.a, 0.5)
		e.store.timing.Store(true)
		before = e.snap()
		tout := runCallers(r.callers, o.measure, 0, true)
		after = e.snap()
		e.store.timing.Store(false)
		res.Attempted += tout.ops
		res.Failed += tout.errs
		lm := layerMetrics(e, before, after, tout.ops, tout.writes, &tout.lad, tout.lagNs)
		for k, v := range lm {
			res.Metrics[k] = v
		}
		put("bench.trace_overhead_pct", (tout.w.quantileUs(tout.w.a, 0.5)/untracedP50-1)*100, "%")
	}

	fmt.Printf("workload: closed loop, %d callers; %d profiles, zipf %.2f, absent share %.2f; cache mem-limit %.1f MiB warm-limit %.1f MiB; isolation on (2s merge), no journal; seed %d\n",
		readCallers, spec.profiles, spec.zipf, spec.absentShare,
		float64(spec.cache.MemLimit)/mib, float64(spec.cache.WarmLimit)/mib, o.seed)
	st := after.cache
	fmt.Printf("cache: usage %.2f MiB (resident %d), warm %.2f MiB (%d); corpus about %.1f MiB decoded; read shares over the last phase: %s\n",
		float64(st.Usage)/mib, st.Resident, float64(st.WarmUsage)/mib, st.WarmResident,
		ratio(float64(st.Usage), float64(st.Resident))*float64(spec.profiles)/mib, readShares(before, after))
	fmt.Printf("rate: %.0f ops/s completed over the last phase; throughput_ops counts per second of CPU time received\n",
		ratio(float64(out.ops), o.measure.Seconds()))
	fmt.Println("metrics: primary_* = single TopK/Filter/Decay reads, secondary_* = QueryBatch of 32")

	if err := checkRead(r, &spec, o.seed, res); err != nil {
		return nil, err
	}
	return res, nil
}

// readShares renders where cache lookups were served: decoded tier (hot),
// warm tier, KV, or absent in KV.
func readShares(a, b layerSnap) string {
	total := float64(b.cache.Total - a.cache.Total)
	hot := float64(b.cache.Hits - a.cache.Hits)
	warm := float64(b.cache.WarmHits - a.cache.WarmHits)
	absent := float64(b.absentProfiles - a.absentProfiles)
	found := total - hot - warm - absent
	return fmt.Sprintf("hot %.3f warm %.3f kv %.3f absent %.3f (of %.0f lookups)",
		ratio(hot, total), ratio(warm, total), ratio(found, total), ratio(absent, total), total)
}
