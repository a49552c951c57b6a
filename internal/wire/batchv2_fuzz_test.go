package wire

import (
	"reflect"
	"testing"

	"ips/internal/codec"
	"ips/internal/query"
)

// v2Frame hand-builds a shared-structure frame from raw blob payloads and
// (err, ref) result pairs — for corpus entries the encoder would never
// produce (dangling refs, duplicate refs to one blob, ref-before-blob
// field order).
func v2Frame(blobs [][]byte, results [][2]interface{}) []byte {
	var e codec.Buffer
	for _, b := range blobs {
		e.Raw(fB2Blob, b)
	}
	for _, r := range results {
		errStr := r[0].(string)
		ref := r[1].(uint32)
		e.Message(fB2Result, func(b *codec.Buffer) {
			b.String(fB2RErr, errStr)
			if ref != 0 {
				b.Uint32(fB2RRef, ref)
			}
		})
	}
	return append([]byte(nil), e.Bytes()...)
}

// FuzzDecodeQueryBatchResponseV2 covers the shared-structure decoder on
// hostile frames: duplicate references (two slots, one blob), dangling
// references past the pool, self-referential garbage, and truncations.
// Whatever decodes must re-encode to a fixpoint and uphold the failed-
// slot invariant (Err != "" => Resp == nil).
func FuzzDecodeQueryBatchResponseV2(f *testing.F) {
	shared := &QueryResponse{SlicesScanned: 2, CacheHit: true, ServerNanos: 42,
		Features: []query.Feature{{FID: 7, Counts: []int64{3, -1}, LastSeen: 9}}}

	// Encoder-shaped seeds: high duplication, failed slots, empty batch.
	f.Add(EncodeQueryBatchResponseV2(&BatchQueryResponse{Results: []BatchResult{
		{Resp: shared}, {Resp: shared}, {Resp: shared},
		{Err: "unknown table \"ghost\""},
		{Resp: &QueryResponse{}},
	}}))
	f.Add(EncodeQueryBatchResponseV2(&BatchQueryResponse{}))

	blob := EncodeQueryResponse(shared)
	// Duplicate refs: four slots sharing one blob.
	f.Add(v2Frame([][]byte{blob}, [][2]interface{}{
		{"", uint32(1)}, {"", uint32(1)}, {"", uint32(1)}, {"", uint32(1)},
	}))
	// Dangling ref: points past the pool — must be a decode error.
	f.Add(v2Frame([][]byte{blob}, [][2]interface{}{{"", uint32(2)}}))
	// Ref with an empty pool.
	f.Add(v2Frame(nil, [][2]interface{}{{"", uint32(7)}}))
	// Err alongside a valid ref: decodes with Resp == nil.
	f.Add(v2Frame([][]byte{blob}, [][2]interface{}{{"boom", uint32(1)}}))
	// A blob that is itself a v2 frame (ref "cycle" shape): the pool
	// decoder must treat it as a QueryResponse payload, never recurse.
	self := v2Frame([][]byte{blob}, [][2]interface{}{{"", uint32(1)}})
	f.Add(v2Frame([][]byte{self}, [][2]interface{}{{"", uint32(1)}}))
	// Hostile raw bytes.
	f.Add([]byte{0x0a, 0xff, 0x01})
	f.Add([]byte{0x12, 0x02, 0x10, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeQueryBatchResponseV2(data)
		if err != nil {
			return
		}
		again, err := DecodeQueryBatchResponseV2(EncodeQueryBatchResponseV2(resp))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(normalizeBatchResp(resp), normalizeBatchResp(again)) {
			t.Fatalf("fixpoint mismatch:\n%+v\n%+v", resp, again)
		}
		for i, br := range again.Results {
			if br.Err != "" && br.Resp != nil {
				t.Fatalf("slot %d: error %q alongside a response", i, br.Err)
			}
		}
	})
}

// TestBatchV2DanglingRef pins that a reference past the blob pool is a
// decode error, not a nil slot — a decoder that silently nils the slot
// would mask server bugs as empty results.
func TestBatchV2DanglingRef(t *testing.T) {
	blob := EncodeQueryResponse(&QueryResponse{ServerNanos: 1})
	for _, ref := range []uint32{2, 3, 1 << 20} {
		frame := v2Frame([][]byte{blob}, [][2]interface{}{{"", ref}})
		if _, err := DecodeQueryBatchResponseV2(frame); err == nil {
			t.Fatalf("ref %d of 1 blob decoded without error", ref)
		}
	}
}

// TestBatchV2SharesDecodedBlobs: duplicate references resolve to the
// SAME decoded object — the codec-CPU half of the v2 win (decode once,
// point many times).
func TestBatchV2SharesDecodedBlobs(t *testing.T) {
	shared := &QueryResponse{CacheHit: true, ServerNanos: 7,
		Features: []query.Feature{{FID: 3, Counts: []int64{9, 9}}}}
	enc := EncodeQueryBatchResponseV2(&BatchQueryResponse{Results: []BatchResult{
		{Resp: shared}, {Resp: shared}, {Err: "x"}, {Resp: shared},
	}})
	got, err := DecodeQueryBatchResponseV2(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(got.Results))
	}
	if got.Results[0].Resp == nil || got.Results[0].Resp != got.Results[1].Resp || got.Results[1].Resp != got.Results[3].Resp {
		t.Fatal("duplicate refs must share one decoded response object")
	}
	if got.Results[2].Resp != nil || got.Results[2].Err != "x" {
		t.Fatalf("failed slot decoded as %+v", got.Results[2])
	}
}

// TestBatchV2MatchesV1 proves semantic equality of the two encodings:
// for any response, decode(encodeV2(r)) == decode(encodeV1(r)) — and
// quantifies the byte win at duplication factors 1, 8 and 64.
func TestBatchV2MatchesV1(t *testing.T) {
	big := &QueryResponse{SlicesScanned: 12, CacheHit: true, ServerNanos: 98765}
	for i := 0; i < 40; i++ {
		big.Features = append(big.Features, query.Feature{
			FID: uint64(i + 1), Counts: []int64{int64(i), int64(2 * i), 7}, LastSeen: 1000 + int64(i), Score: float64(i) / 3,
		})
	}
	for _, dup := range []int{1, 8, 64} {
		r := &BatchQueryResponse{}
		for i := 0; i < dup; i++ {
			r.Results = append(r.Results, BatchResult{Resp: big})
		}
		r.Results = append(r.Results, BatchResult{Err: "tail slot failed"})

		v1 := EncodeQueryBatchResponse(r)
		v2 := EncodeQueryBatchResponseV2(r)
		d1, err := DecodeQueryBatchResponse(v1)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := DecodeQueryBatchResponseV2(v2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeBatchResp(d1), normalizeBatchResp(d2)) {
			t.Fatalf("dup %d: v1 and v2 decode to different responses", dup)
		}
		if dup >= 8 && len(v2)*2 > len(v1) {
			t.Errorf("dup %d: v2 frame %dB not under half of v1's %dB", dup, len(v2), len(v1))
		}
		t.Logf("dup %d: v1=%dB v2=%dB (%.1f%%)", dup, len(v1), len(v2), 100*float64(len(v2))/float64(len(v1)))
	}
}

// TestBatchV2DedupeCollisions forces every response hash to one value,
// so every lookup goes through the byte compare: distinct responses must
// still get distinct blobs, and only equal ones may share a reference.
func TestBatchV2DedupeCollisions(t *testing.T) {
	resp := func(fid uint64, nanos int64) *QueryResponse {
		return &QueryResponse{ServerNanos: nanos, CacheHit: true,
			Features: []query.Feature{{FID: fid, Counts: []int64{int64(fid), 1}}}}
	}
	in := &BatchQueryResponse{Results: []BatchResult{
		{Resp: resp(1, 5)}, {Resp: resp(2, 5)}, {Resp: resp(1, 5)},
		{Resp: resp(1, 6)}, {Err: "boom"}, {Resp: resp(2, 5)}, {Resp: &QueryResponse{}},
	}}
	var slots []BatchSlot
	for _, br := range in.Results {
		s := BatchSlot{Err: br.Err}
		if br.Resp != nil {
			s.OK, s.CacheHit, s.ServerNanos = true, br.Resp.CacheHit, br.Resp.ServerNanos
			s.Feats = AppendQueryFeatures(nil, br.Resp.Features)
		}
		slots = append(slots, s)
	}
	for _, collide := range []bool{false, true} {
		enc := BatchV2Encoder{collide: collide}
		frame := enc.Append(nil, slots)
		if want := EncodeQueryBatchResponseV2(in); !reflect.DeepEqual(frame, want) {
			t.Fatalf("collide=%v: encoder frame differs from EncodeQueryBatchResponseV2", collide)
		}
		got, err := DecodeQueryBatchResponseV2(frame)
		if err != nil {
			t.Fatal(err)
		}
		r := got.Results
		if r[0].Resp != r[2].Resp || r[1].Resp != r[5].Resp {
			t.Fatalf("collide=%v: equal responses must share one blob", collide)
		}
		distinct := []*QueryResponse{r[0].Resp, r[1].Resp, r[3].Resp, r[6].Resp}
		for i := range distinct {
			for j := i + 1; j < len(distinct); j++ {
				if distinct[i] == distinct[j] {
					t.Fatalf("collide=%v: distinct responses %d and %d share a reference", collide, i, j)
				}
			}
		}
		if !reflect.DeepEqual(normalizeBatchResp(got), normalizeBatchResp(in)) {
			t.Fatalf("collide=%v: decoded %+v, want %+v", collide, got, in)
		}
	}
}
