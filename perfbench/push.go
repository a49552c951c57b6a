package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ips/internal/client"
	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/rpc"
	"ips/internal/wire"
)

// The write workload: every written profile is watched by a standing
// query, and each caller sends its next write once the previous one is
// acknowledged and its push delivered.
const (
	pushProfiles   = 4096 // watched profiles, prefilled
	pushPerProfile = 8    // prefill entries per profile
	// pushSubs subscriptions watch pushProfiles/pushSubs profiles each,
	// few enough that every baseline fits the default 64-update queue.
	pushSubs    = 128
	pushCallers = 2
	pushWarmup  = 500 * time.Millisecond
	pushWait    = 5 * time.Second // longest wait for a write's push
	// pushPipeline is each subscription's standing query after its source.
	pushPipeline = " | slot(1) | topk(16)"
	// Tagged writes carry a fresh feature ID and a count above every
	// earlier one, so the newest tags always lead the standing query's
	// top-k and a push carrying the write is recognisable.
	tagFIDBase   = 1 << 40
	tagCountBase = 1 << 30
)

// pushObserver matches pushed updates against outstanding tagged writes
// and checks per-profile sequence continuity.
type pushObserver struct {
	mu sync.Mutex
	// pending maps a tag FID to the channel its write's caller waits on
	// for the time the push arrived.
	pending map[uint64]chan time.Time

	baselines, seqGaps, updates atomic.Int64
}

// expect registers a tagged write before it is sent.
func (o *pushObserver) expect(fid uint64) <-chan time.Time {
	ch := make(chan time.Time, 1) // consume never blocks on a caller
	o.mu.Lock()
	o.pending[fid] = ch
	o.mu.Unlock()
	return ch
}

func (o *pushObserver) forget(fid uint64) {
	o.mu.Lock()
	delete(o.pending, fid)
	o.mu.Unlock()
}

// consume drains one subscription until it closes. Sequence numbers are
// gapless per profile within a stream; a reopened stream restarts at 1
// with a Resync-flagged full answer.
func (o *pushObserver) consume(s *client.Subscription) {
	last := make(map[model.ProfileID]uint64)
	for u := range s.Updates() {
		now := time.Now()
		o.updates.Add(1)
		prev := last[u.ProfileID]
		if u.Seq != prev+1 && !(u.Resync && u.Seq == 1) {
			o.seqGaps.Add(1)
		}
		if prev == 0 && u.Resync {
			o.baselines.Add(1)
		}
		last[u.ProfileID] = u.Seq
		o.mu.Lock()
		for i := range u.Result.Features {
			fid := u.Result.Features[i].FID
			if ch, ok := o.pending[fid]; ok && fid >= tagFIDBase {
				delete(o.pending, fid)
				ch <- now
			}
		}
		o.mu.Unlock()
	}
}

// pushRun is one built write_push environment.
type pushRun struct {
	e      *env
	rc     *rpc.Client
	obs    *pushObserver
	subs   []*client.Subscription
	cancel context.CancelFunc
	wg     sync.WaitGroup
	tmpl   wire.QueryRequest // the standing query, for ladder reads
	// callers are the closed-loop writers; serial numbers their tagged
	// writes across callers and phases.
	callers []*pushCaller
	serial  atomic.Uint64
}

// pushCaller is one closed-loop writer, like an ingest worker that waits
// until its update is acknowledged and visible to the standing queries.
type pushCaller struct {
	r    *pushRun
	rng  *rand.Rand
	sc   query.Scratch
	resp wire.QueryResponse
	// prevEnd is when the previous write's push arrived: the next write
	// is due then, so sending later is the generator's own lateness.
	prevEnd time.Time
}

func (r *pushRun) close() {
	r.cancel()
	for _, s := range r.subs {
		s.Close()
	}
	r.wg.Wait()
	_ = r.rc.Close()
	r.e.close()
}

// setupPush builds the instance with its journal, prefills the watched
// profiles, subscribes to all of them and waits for every baseline.
func setupPush(seed int64, journal string) (*pushRun, error) {
	e, err := newEnv(instanceSpec{journal: journal})
	if err != nil {
		return nil, err
	}
	if err := e.prefill(seed, pushProfiles, pushPerProfile, 0); err != nil {
		e.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rc := rpc.NewClient(e.addr)
	rc.PoolSize = 1
	rc.CallTimeout = 5 * time.Second
	r := &pushRun{
		e: e, rc: rc, cancel: cancel,
		obs: &pushObserver{pending: make(map[uint64]chan time.Time)},
	}
	for i := 0; i < pushCallers; i++ {
		r.callers = append(r.callers, &pushCaller{
			r: r, rng: rand.New(rand.NewSource(seed*1000 + int64(i) ^ 0x9e3779b9)),
		})
	}
	per := pushProfiles / pushSubs
	for s := 0; s < pushSubs; s++ {
		var b strings.Builder
		b.WriteString("source(" + table)
		for id := s*per + 1; id <= (s+1)*per; id++ {
			b.WriteString(", " + strconv.Itoa(id))
		}
		b.WriteString(")" + pushPipeline)
		sb, err := e.cl.Subscribe(ctx, b.String())
		if err != nil {
			r.close()
			return nil, err
		}
		if s == 0 {
			r.tmpl = sb.Query().Req
			r.tmpl.Caller = caller
		}
		r.subs = append(r.subs, sb)
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.obs.consume(sb)
		}()
	}
	for deadline := time.Now().Add(time.Minute); r.obs.baselines.Load() < pushProfiles; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			r.close()
			return nil, fmt.Errorf("only %d/%d baselines delivered", r.obs.baselines.Load(), pushProfiles)
		}
	}
	return r, nil
}

// pushOut is one phase's output. Its windows hold write (primary) and
// push (secondary) latencies by the time the write was sent.
type pushOut struct {
	w                 *windows
	lagNs             []int64
	ops, writes, errs int64
	lad               ladder
	lost              int64 // acknowledged writes whose push never came
}

func (o *pushOut) merge(p *pushOut) {
	o.w.merge(p.w)
	o.lagNs = append(o.lagNs, p.lagNs...)
	o.ops += p.ops
	o.writes += p.writes
	o.errs += p.errs
	o.lost += p.lost
	o.lad.merge(&p.lad)
}

// phase runs every caller until dur has passed and merges their outputs.
func (r *pushRun) phase(dur time.Duration, traced bool) pushOut {
	start := time.Now()
	deadline := start.Add(dur)
	outs := make([]pushOut, len(r.callers))
	all := pushOut{w: newWindows(start, dur)}
	stopSteal := all.w.meterSteal()
	var wg sync.WaitGroup
	for i, c := range r.callers {
		outs[i].w = newWindows(start, dur)
		wg.Add(1)
		go func(c *pushCaller, out *pushOut) {
			defer wg.Done()
			c.prevEnd = time.Time{}
			for time.Now().Before(deadline) {
				c.step(out, traced)
			}
		}(c, &outs[i])
	}
	wg.Wait()
	stopSteal()
	for i := range outs {
		all.merge(&outs[i])
	}
	all.w.log("write")
	return all
}

// step sends one tagged write to a uniformly drawn watched profile and
// waits for its push. In the traced phase a sample of writes goes
// straight to Instance.AddCtx, and another sample is followed by a
// ladder read of the standing query over the written profile.
func (c *pushCaller) step(out *pushOut, traced bool) {
	r := c.r
	serial := r.serial.Add(1)
	id := model.ProfileID(1 + c.rng.Intn(pushProfiles))
	fid := tagFIDBase + serial
	en := wire.AddEntry{
		Timestamp: writeTS, Slot: 1, Type: 1, FID: fid,
		Counts: []int64{tagCountBase + int64(serial), 0, 0},
	}
	pushed := r.obs.expect(fid)
	out.ops++
	if !c.prevEnd.IsZero() {
		out.lagNs = append(out.lagNs, int64(time.Since(c.prevEnd)))
	}
	sent := time.Now()
	var err error
	if traced && serial%traceEvery == 0 {
		err = r.e.inst.AddCtx(context.Background(), caller, table, id, []wire.AddEntry{en})
		out.lad.addNs = append(out.lad.addNs, int64(time.Since(sent)))
	} else {
		err = r.e.cl.Add(table, id, en)
		if i := out.w.index(sent); err == nil && i >= 0 {
			out.w.a[i] = append(out.w.a[i], int64(time.Since(sent)))
		}
	}
	if err != nil {
		out.errs++
		r.obs.forget(fid)
		c.prevEnd = time.Now()
		return
	}
	r.e.entries.Add(1)
	out.writes++
	t := time.NewTimer(pushWait)
	select {
	case at := <-pushed:
		t.Stop()
		if i := out.w.index(sent); i >= 0 {
			out.w.b[i] = append(out.w.b[i], int64(at.Sub(sent)))
			out.w.ops[i]++
		}
	case <-t.C:
		r.obs.forget(fid)
		out.lost++
	}
	if traced && serial%traceEvery == traceEvery/2 {
		if err := c.ladderRead(id, serial, out); err != nil {
			out.errs++
		}
	}
	c.prevEnd = time.Now()
}

// ladderRead serves the standing query's read of the written profile
// through one ladder step, rotating client → rpc → server.
func (c *pushCaller) ladderRead(id model.ProfileID, serial uint64, out *pushOut) error {
	r := c.r
	q := r.tmpl
	q.ProfileID = id
	out.ops++
	switch (serial / traceEvery) % 3 {
	case 0:
		t0 := time.Now()
		_, err := r.e.cl.TopK(&q)
		out.lad.clientNs = append(out.lad.clientNs, int64(time.Since(t0)))
		return err
	case 1:
		return rpcStep(r.rc, &q, &out.lad)
	}
	t0 := time.Now()
	err := r.e.inst.QueryInto(context.Background(), &q, &c.resp, &c.sc)
	out.lad.serverNs = append(out.lad.serverNs, int64(time.Since(t0)))
	r.e.store.probe(q.ProfileID)
	return err
}

// runPush runs the write workload.
func runPush(o runOpts) (*result, error) {
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []time.Duration
	var r *pushRun
	for i := 0; i < repeats; i++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		var err error
		r, err = setupPush(o.seed, filepath.Join(o.workDir, fmt.Sprintf("journal-%d.wal", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer r.close()
	e := r.e

	warm := r.phase(pushWarmup, false)
	res := &result{Metrics: map[string]metric{}}
	res.Attempted += warm.ops
	res.Failed += warm.errs + warm.lost

	before := e.snap()
	out := r.phase(o.measure, false)
	after := e.snap()
	logPhase(before, after, out.ops)
	res.Attempted += out.ops
	res.Failed += out.errs + out.lost
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	if !o.trace {
		put("setup_s", medianSeconds(setups), "s")
		put("throughput_ops", out.w.cpuRate(), "1/s")
		put("primary_p50_us", out.w.quantileUs(out.w.a, 0.5), "us")
		put("primary_p90_us", out.w.quantileUs(out.w.a, 0.9), "us")
		put("secondary_p50_us", out.w.quantileUs(out.w.b, 0.5), "us")
		put("secondary_p90_us", out.w.quantileUs(out.w.b, 0.9), "us")
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
		tout := r.phase(o.measure, true)
		after = e.snap()
		e.store.timing.Store(false)
		res.Attempted += tout.ops
		res.Failed += tout.errs + tout.lost
		for k, v := range layerMetrics(e, before, after, tout.ops, tout.writes, &tout.lad, tout.lagNs) {
			res.Metrics[k] = v
		}
		put("bench.trace_overhead_pct", (tout.w.quantileUs(tout.w.a, 0.5)/untracedP50-1)*100, "%")
	}
	fmt.Printf("workload: closed loop, %d callers, each waiting for its write's ack and push; %d watched profiles in %d subscriptions; isolation off, journal on (journal-sync 0: flush per append, no fsync), write-back flush every 100ms; seed %d\n",
		pushCallers, pushProfiles, pushSubs, o.seed)
	fmt.Printf("push: %d updates, %d baselines, %d sequence gaps; last phase: %d drops, %d resyncs\n",
		r.obs.updates.Load(), r.obs.baselines.Load(), r.obs.seqGaps.Load(),
		after.drops-before.drops, after.resyncs-before.resyncs)
	fmt.Println("metrics: primary_* = write until acked, secondary_* = push delivery; both from the write's send")
	// A drop means a subscriber queue overflowed: the update reaches it
	// only as a later resync, which steady state must never need.
	if drops := after.drops - before.drops; drops > 0 {
		failf(res, "%d pushes dropped during the measured phase", drops)
		res.Failed += drops - 1
	}

	if gaps := r.obs.seqGaps.Load(); gaps > 0 {
		res.Failed += gaps
		fmt.Printf("check: %d sequence gaps\n", gaps)
	}
	draw := func(rng *rand.Rand) *wire.QueryRequest {
		q := r.tmpl
		q.ProfileID = model.ProfileID(1 + rng.Intn(pushProfiles))
		return &q
	}
	checkSample(e, draw, o.seed, res)
	res.Correct = res.Failed == 0
	return res, nil
}

// rpcStep serves q through a bench-owned rpc.Client: the client layer's
// encode, transport and decode, timed apart.
func rpcStep(rc *rpc.Client, q *wire.QueryRequest, lad *ladder) error {
	method, _ := readMethod(q)
	t0 := time.Now()
	payload := wire.EncodeQuery(q)
	t1 := time.Now()
	raw, err := rc.Call(method, payload)
	t2 := time.Now()
	if err != nil {
		return err
	}
	_, err = wire.DecodeQueryResponse(raw)
	t3 := time.Now()
	lad.encNs = append(lad.encNs, int64(t1.Sub(t0)))
	lad.rpcNs = append(lad.rpcNs, int64(t2.Sub(t1)))
	lad.decNs = append(lad.decNs, int64(t3.Sub(t2)))
	return err
}
