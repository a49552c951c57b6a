package main

import (
	"runtime"

	"ips/internal/client"
	"ips/internal/gcache"
)

// layerSnap reads every counter the per-layer metrics take deltas of.
// Deltas span the measured phase only.
type layerSnap struct {
	proc                                 procSnap
	cache                                gcache.Stats
	gets, absent, absentProfiles         int64
	setBytes                             int64
	res                                  client.ResilienceStats
	mergeRuns, merged                    int64
	evals, skips, pushes, drops, resyncs int64
	walBytes                             int64
	entries                              int64
}

func (e *env) snap() layerSnap {
	hub := e.inst.Hub()
	s := layerSnap{
		cache:          e.cacheStats(),
		gets:           e.store.gets.Load(),
		absent:         e.store.absent.Load(),
		absentProfiles: e.store.absentProfiles.Load(),
		setBytes:       e.store.setBytes.Load(),
		res:            e.cl.Resilience(),
		mergeRuns:      e.inst.MergeRuns.Value(),
		merged:         e.inst.MergedSlabs.Value(),
		evals:          hub.Evals.Value(),
		skips:          hub.Skips.Value(),
		pushes:         hub.Pushes.Value(),
		drops:          hub.Drops.Value(),
		resyncs:        hub.Resyncs.Value(),
		entries:        e.entries.Load(),
	}
	if e.journal != nil {
		s.walBytes = e.journal.Stats().AppendBytes
	}
	s.proc = readProc() // last, so the counters above are inside the window
	return s
}

// layerMetrics computes the per-layer metrics of one traced phase from
// the counter deltas a→b, the ladder samples and the load generator's
// lateness samples. ops counts every request of the phase, writes the
// acknowledged writes among them.
func layerMetrics(e *env, a, b layerSnap, ops, writes int64, lad *ladder, lagNs []int64) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perOp := func(d int64) float64 { return ratio(float64(d), float64(ops)) }
	perWrite := func(d int64) float64 { return ratio(float64(d), float64(writes)) }

	// Ladder: medians of each step; self times are differences of
	// adjacent steps, so client.self + encode + decode + rpc.self +
	// server.query adds up to client.read exactly.
	clientUs := quantileUs(lad.clientNs, 0.5)
	rpcUs := quantileUs(lad.rpcNs, 0.5)
	serverUs := quantileUs(lad.serverNs, 0.5)
	encNs := float64(quantile(lad.encNs, 0.5))
	decNs := float64(quantile(lad.decNs, 0.5))
	put("client.read_us", clientUs, "us")
	put("client.self_us", clientUs-rpcUs-(encNs+decNs)/1e3, "us")
	put("rpc.call_us", rpcUs, "us")
	put("rpc.self_us", rpcUs-serverUs, "us")
	put("server.query_us", serverUs, "us")
	put("wire.encode_query_ns", encNs, "ns")
	put("wire.decode_response_ns", decNs, "ns")
	put("wire.batch_response_bytes", float64(quantile(lad.batchBytes, 0.5)), "B")
	put("server.add_us", quantileUs(lad.addNs, 0.5), "us")

	put("client.retries_per_op", perOp(b.res.Retries-a.res.Retries), "count")
	put("client.hedges_per_op", perOp(b.res.Hedges-a.res.Hedges), "count")

	if a.proc.ioOK && b.proc.ioOK {
		put("proc.syscr_per_op", perOp(b.proc.syscr-a.proc.syscr), "count")
		put("proc.syscw_per_op", perOp(b.proc.syscw-a.proc.syscw), "count")
	} else {
		put("proc.syscr_per_op", 0, "count")
		put("proc.syscw_per_op", 0, "count")
	}
	put("proc.cpu_us_per_op", ratio(float64(b.proc.cpu-a.proc.cpu)/1e3, float64(ops)), "us")
	put("proc.allocs_per_op", perOp(int64(b.proc.mallocs-a.proc.mallocs)), "count")
	put("proc.gc_cycles", float64(b.proc.numGC-a.proc.numGC), "count")
	put("proc.gc_pause_ms", float64(b.proc.pauseNs-a.proc.pauseNs)/1e6, "ms")

	put("server.merge_runs", float64(b.mergeRuns-a.mergeRuns), "count")
	put("server.merged_profiles", float64(b.merged-a.merged), "count")

	// Cache lookups: every GetForRead / write-path load observes the hit
	// ratio once, so "per read" below is per cache lookup.
	lookups := float64(b.cache.Total - a.cache.Total)
	hits := float64(b.cache.Hits - a.cache.Hits)
	kops := float64(ops) / 1e3
	put("gcache.hit_ratio", ratio(hits, lookups), "ratio")
	put("gcache.misses_per_read", ratio(lookups-hits, lookups), "ratio")
	put("gcache.warm_hits_per_read", ratio(float64(b.cache.WarmHits-a.cache.WarmHits), lookups), "ratio")
	put("gcache.evictions_per_kop", ratio(float64(b.cache.Evictions-a.cache.Evictions), kops), "count")
	put("gcache.demotions_per_kop", ratio(float64(b.cache.Demotions-a.cache.Demotions), kops), "count")
	put("gcache.flushes_per_kop", ratio(float64(b.cache.Flushes-a.cache.Flushes), kops), "count")
	put("gcache.load_waits", float64(b.cache.LoadWaits-a.cache.LoadWaits), "count")
	put("gcache.usage_mb", float64(b.cache.Usage)/mib, "MiB")
	put("gcache.warm_usage_mb", float64(b.cache.WarmUsage)/mib, "MiB")

	put("kv.gets_per_read", ratio(float64(b.gets-a.gets), lookups), "ratio")
	put("kv.absent_gets_per_read", ratio(float64(b.absent-a.absent), lookups), "ratio")
	put("kv.get_us", quantileUs(e.store.takeGetNs(), 0.5), "us")
	put("kv.set_bytes_per_entry", ratio(float64(b.setBytes-a.setBytes), float64(b.entries-a.entries)), "B")
	put("wal.bytes_per_entry", ratio(float64(b.walBytes-a.walBytes), float64(b.entries-a.entries)), "B")

	put("sub.evals_per_write", perWrite(b.evals-a.evals), "count")
	put("sub.skips_per_write", perWrite(b.skips-a.skips), "count")
	put("sub.pushes_per_write", perWrite(b.pushes-a.pushes), "count")
	put("sub.drops", float64(b.drops-a.drops), "count")
	put("sub.resyncs", float64(b.resyncs-a.resyncs), "count")

	put("bench.lag_p90_us", quantileUs(lagNs, 0.9), "us")
	return m
}

// logPhase prints, with PERFBENCH_VERBOSE=1, the process's CPU time per
// operation and CPU utilisation over a phase. CPU time per operation
// that moves while the work mix stays put is the machine's speed moving.
func logPhase(a, b layerSnap, ops int64) {
	cpu := float64(b.proc.cpu - a.proc.cpu)
	logf("cpu %.1fus/op, utilisation %.2f of %d CPUs, %d GC cycles",
		ratio(cpu/1e3, float64(ops)), ratio(cpu, float64(b.proc.at.Sub(a.proc.at))*float64(runtime.NumCPU())),
		runtime.NumCPU(), b.proc.numGC-a.proc.numGC)
}
