//go:build !race

package server

// Allocation gate for the batch read path: a warmed ips.query_batch2
// handler body costs the same small, constant number of allocations
// whether the batch carries 8 sub-queries or 32 — decode into pooled
// request storage, worker-held query scratch, encode-then-reuse, hash
// dedupe and frame assembly all recycle their storage. The !race
// constraint keeps it out of -race runs, whose instrumentation
// allocates; CI's alloc job runs it race-free.

import (
	"context"
	"testing"

	"ips/internal/model"
	"ips/internal/query"
	"ips/internal/wire"
)

// batchHandlerAllocBound is the most a warmed batch handler body may
// allocate: the response copy handed to the rpc layer plus one small
// closure per extra worker goroutine (at most batchWorkers-1).
const batchHandlerAllocBound = batchWorkers + 2

// warmBatchPayload encodes a batch of n topK/filter sub-queries over
// n distinct resident profiles.
func warmBatchPayload(t testing.TB, in *Instance, n int) []byte {
	t.Helper()
	req := &wire.BatchQueryRequest{Caller: "test"}
	for i := 0; i < n; i++ {
		id := model.ProfileID(100 + i)
		for f := 1; f <= 12; f++ {
			addOne(t, in, id, 1_000_000_000, model.FeatureID(f+i), []int64{int64(f), int64(f % 3)})
		}
		q := wire.QueryRequest{
			Table: "up", ProfileID: id, Slot: 1, Type: 1,
			RangeKind: query.Current, Span: 10_000,
			SortBy: query.ByAction, Action: "like", K: 8,
		}
		op := wire.OpTopK
		if i%2 == 1 {
			op, q.MinCount, q.K = wire.OpFilter, 2, 0
		}
		req.Subs = append(req.Subs, wire.SubQuery{Op: op, Query: q})
	}
	return wire.EncodeQueryBatch(req)
}

func TestBatchHandlerAllocs(t *testing.T) {
	in, _ := newInstance(t, nil)
	svc := NewService(in)
	t.Cleanup(func() { svc.Close() })
	ctx := context.Background()
	allocs := make(map[int]float64)
	for _, n := range []int{8, 32} {
		payload := warmBatchPayload(t, in, n)
		for i := 0; i < 64; i++ {
			if _, err := svc.queryBatchV2(ctx, payload); err != nil {
				t.Fatal(err)
			}
		}
		out, err := svc.queryBatchV2(ctx, payload)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := wire.DecodeQueryBatchResponseV2(out)
		if err != nil {
			t.Fatal(err)
		}
		for i, br := range resp.Results {
			if br.Err != "" || br.Resp == nil || len(br.Resp.Features) == 0 {
				t.Fatalf("n=%d slot %d: err=%q resp=%v", n, i, br.Err, br.Resp)
			}
		}
		allocs[n] = testing.AllocsPerRun(200, func() {
			if _, err := svc.queryBatchV2(ctx, payload); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("warmed %d-sub batch: %.2f allocs/run", n, allocs[n])
	}
	if allocs[8] != allocs[32] {
		t.Fatalf("batch allocations grow with size: %.2f at 8 subs, %.2f at 32", allocs[8], allocs[32])
	}
	if allocs[32] > batchHandlerAllocBound {
		t.Fatalf("warmed batch handler: %.2f allocs/run, want <= %d", allocs[32], batchHandlerAllocBound)
	}
}
