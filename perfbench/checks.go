package main

import (
	"context"
	"fmt"
	"math/rand"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
	"ips/internal/workload"
)

// checkBatches is how many 32-request batches the sampled checks draw.
const checkBatches = 48

// failf counts one failed check and reports it on standard output.
func failf(res *result, format string, args ...any) {
	res.Failed++
	if res.Failed <= 5 {
		fmt.Printf("check failed: "+format+"\n", args...)
	}
}

// sameFeatures reports whether two responses carry identical features.
func sameFeatures(a, b []query.Feature) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.FID != y.FID || x.LastSeen != y.LastSeen || x.Score != y.Score || len(x.Counts) != len(y.Counts) {
			return false
		}
		for j := range x.Counts {
			if x.Counts[j] != y.Counts[j] {
				return false
			}
		}
	}
	return true
}

// checkSample runs once the load has stopped. On drawn requests it
// checks that QueryBatch results equal single client reads, and that
// client reads equal in-process QueryInto results.
func checkSample(e *env, draw func(*rand.Rand) *wire.QueryRequest, seed int64, res *result) {
	rng := rand.New(rand.NewSource(seed ^ 0xc4ec))
	subs := make([]wire.SubQuery, batchSize)
	var sc query.Scratch
	var local wire.QueryResponse
	for b := 0; b < checkBatches; b++ {
		for i := range subs {
			q := draw(rng)
			_, op := readMethod(q)
			subs[i] = wire.SubQuery{Op: op, Query: *q}
		}
		res.Attempted++
		batch, err := e.cl.QueryBatch(subs)
		if err != nil {
			failf(res, "QueryBatch: %v", err)
			continue
		}
		for i := range subs {
			q := &subs[i].Query
			res.Attempted += 2
			single, err := e.clientRead(q)
			if err != nil {
				failf(res, "client read of profile %d: %v", q.ProfileID, err)
				continue
			}
			if !sameFeatures(single.Features, batch[i].Features) {
				failf(res, "profile %d: batch slot %d differs from the single read", q.ProfileID, i)
			}
			if err := e.inst.QueryInto(context.Background(), q, &local, &sc); err != nil {
				failf(res, "QueryInto of profile %d: %v", q.ProfileID, err)
			} else if !sameFeatures(single.Features, local.Features) {
				failf(res, "profile %d: client read differs from QueryInto", q.ProfileID)
			}
		}
	}
}

// checkRead runs the read workloads' checks after the measured phase.
func checkRead(r *readRun, spec *readSpec, seed int64, res *result) error {
	e := r.e
	// Buffered isolated writes become visible at merge.
	e.inst.MergeAll()
	gen := workload.New(genOptions(seed^0xc4ec, spec.profiles, spec.zipf))
	draw := func(rng *rand.Rand) *wire.QueryRequest { return drawQuery(spec, gen, rng) }
	checkSample(e, draw, seed, res)
	if spec.reference {
		if err := checkReference(r, spec, seed, draw, res); err != nil {
			return err
		}
	}
	res.Correct = res.Failed == 0
	return nil
}

// checkReference compares sampled results of the tiered instance with an
// instance that has no memory limit and was fed the same prefill and the
// same writes. Reads of never-written profiles must return empty results
// on both, not errors.
func checkReference(r *readRun, spec *readSpec, seed int64, draw func(*rand.Rand) *wire.QueryRequest, res *result) error {
	rng := rand.New(rand.NewSource(seed ^ 0x7ef))
	qs := make([]*wire.QueryRequest, checkBatches*batchSize)
	want := make(map[model.ProfileID]bool, len(qs))
	for i := range qs {
		qs[i] = draw(rng)
		want[qs[i].ProfileID] = true
	}
	ref, err := newEnv(instanceSpec{})
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	defer ref.close()
	// Regenerate the whole prefill stream but apply only sampled profiles:
	// each profile's history depends on the generator state before it.
	gen := workload.New(genOptions(seed, spec.profiles, 0))
	for id := 1; id <= spec.profiles; id++ {
		entries := prefillEntries(gen, spec.perProfile)
		if want[model.ProfileID(id)] {
			if err := ref.inst.Add(caller, table, model.ProfileID(id), entries); err != nil {
				return fmt.Errorf("reference prefill: %w", err)
			}
		}
	}
	for _, c := range r.callers {
		for _, w := range c.writes {
			if want[w.id] {
				if err := ref.inst.Add(caller, table, w.id, []wire.AddEntry{w.entry}); err != nil {
					return fmt.Errorf("reference replay: %w", err)
				}
			}
		}
	}
	var sc query.Scratch
	var got, exp wire.QueryResponse
	for _, q := range qs {
		res.Attempted++
		err1 := r.e.inst.QueryInto(context.Background(), q, &got, &sc)
		if err1 != nil {
			failf(res, "tiered QueryInto of profile %d: %v", q.ProfileID, err1)
			continue
		}
		absent := int(q.ProfileID) > spec.profiles
		if absent && len(got.Features) != 0 {
			failf(res, "never-written profile %d returned %d features", q.ProfileID, len(got.Features))
			continue
		}
		gotF := append([]query.Feature(nil), got.Features...)
		var sc2 query.Scratch
		if err := ref.inst.QueryInto(context.Background(), q, &exp, &sc2); err != nil {
			failf(res, "reference QueryInto of profile %d: %v", q.ProfileID, err)
			continue
		}
		if !sameFeatures(gotF, exp.Features) {
			failf(res, "profile %d: tiered result differs from the reference (%d vs %d features)",
				q.ProfileID, len(gotF), len(exp.Features))
		}
	}
	return nil
}
