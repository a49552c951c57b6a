//go:build !race

package wire

// Allocation gate for the client half of the batch read path: decoding a
// v2 frame takes every response, feature and count vector from one arena
// per batch, so the decode costs the same constant whatever the frame
// carries. The !race constraint keeps it out of -race runs, whose
// instrumentation allocates; CI's alloc job runs it race-free.

import (
	"testing"

	"ips/internal/query"
)

// v2FrameWith encodes a 32-slot batch of distinct responses with feats
// features each.
func v2FrameWith(feats int) []byte {
	r := &BatchQueryResponse{}
	for i := 0; i < 32; i++ {
		resp := &QueryResponse{SlicesScanned: 4, CacheHit: true, ServerNanos: int64(1000 + i)}
		for f := 0; f < feats; f++ {
			resp.Features = append(resp.Features, query.Feature{
				FID: uint64(100*i + f), Counts: []int64{int64(f), 1, 2}, LastSeen: 77,
			})
		}
		r.Results = append(r.Results, BatchResult{Resp: resp})
	}
	return EncodeQueryBatchResponseV2(r)
}

func TestBatchV2DecodeAllocs(t *testing.T) {
	allocs := make(map[int]float64)
	for _, feats := range []int{4, 64} {
		frame := v2FrameWith(feats)
		allocs[feats] = testing.AllocsPerRun(100, func() {
			resp, err := DecodeQueryBatchResponseV2(frame)
			if err != nil || len(resp.Results) != 32 || len(resp.Results[31].Resp.Features) != feats {
				t.Fatalf("decode: %v", err)
			}
		})
		t.Logf("%d features per response: %.2f allocs/run", feats, allocs[feats])
	}
	if allocs[4] != allocs[64] {
		t.Fatalf("decode allocations grow with features: %.2f at 4, %.2f at 64", allocs[4], allocs[64])
	}
	// The response header, the result list, and one arena each for
	// responses, features and count vectors.
	if allocs[64] > 5 {
		t.Fatalf("decode: %.2f allocs/run, want <= 5", allocs[64])
	}
}
