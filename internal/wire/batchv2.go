package wire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"

	"ips/internal/codec"
	"ips/internal/query"
)

// MethodQueryBatchV2 is the shared-structure batch read (batch
// architecture v2, part c). The request payload is identical to
// ips.query_batch; only the response encoding differs: instead of
// embedding one QueryResponse per slot, the server encodes each DISTINCT
// response once in a blob pool and each slot carries a small reference
// into it. Ranking batches at high duplication factors (many sub-queries
// scoring windows of the same hot profile) ask the same question many
// times and get the same answer — v2 pays the codec CPU and wire bytes
// for that answer once.
const MethodQueryBatchV2 = "ips.query_batch2"

// Field numbers for the v2 batch response.
const (
	// fB2Blob is a repeated bytes field: the pool of distinct encoded
	// QueryResponse payloads, in first-use order.
	fB2Blob = 1
	// fB2Result is a repeated message: one per sub-query, in request
	// order.
	fB2Result = 2

	// Inside a result message: the error string, and a 1-based reference
	// into the blob pool (0 = no response, the failed-slot shape).
	fB2RErr = 1
	fB2RRef = 2
)

// BatchSlot is one sub-query's outcome in pre-encoded form, the input of
// BatchV2Encoder. A successful slot (OK, empty Err) carries its
// response's encoded feature messages (AppendQueryFeatures) and the
// scalar fields that follow them; its full QueryResponse encoding is
// Feats plus that trailer. A failed slot carries only Err.
type BatchSlot struct {
	Err           string
	OK            bool
	Feats         []byte
	SlicesScanned int
	CacheHit      bool
	ServerNanos   int64
	WalLSN        uint64
}

// hasResp reports whether the slot carries a response.
//
//ips:hotpath
func (s *BatchSlot) hasResp() bool { return s.OK && s.Err == "" }

// sameResp reports whether two slots encode to identical responses: the
// trailer encoding is a function of the scalars, so equal scalars and
// equal feature bytes mean equal encodings.
//
//ips:hotpath
func sameResp(a, b *BatchSlot) bool {
	return a.SlicesScanned == b.SlicesScanned && a.CacheHit == b.CacheHit &&
		a.ServerNanos == b.ServerNanos && a.WalLSN == b.WalLSN &&
		bytes.Equal(a.Feats, b.Feats)
}

// blobSeed keys the dedupe hash; fixed per process, so equal responses
// hash equally within and across batches.
var blobSeed = maphash.MakeSeed()

// BatchV2Encoder assembles shared-structure batch frames. Distinct
// responses are found by hash plus a byte compare: each response's hash
// probes an open-addressed table of earlier responses, and only a slot
// whose hash and bytes both match shares its blob, so a hash collision
// between distinct responses costs a compare, never a wrong reference.
// The encoder keeps its table and reference storage between frames; a
// warmed encoder assembles a frame without allocating. It is not safe
// for concurrent use.
type BatchV2Encoder struct {
	refs   []uint32
	table  []int32 // slot index + 1 of each cell's first user; 0 = empty
	hashes []uint64
	// collide forces every hash to one value — a test hook that drives
	// every lookup through the byte compare.
	collide bool
}

// slotHash hashes a response's feature bytes and scalars.
//
//ips:hotpath
func (enc *BatchV2Encoder) slotHash(s *BatchSlot) uint64 {
	if enc.collide {
		return 0
	}
	h := maphash.Bytes(blobSeed, s.Feats)
	h ^= uint64(s.SlicesScanned)*0x9e3779b97f4a7c15 ^ uint64(s.ServerNanos)*0xc2b2ae3d27d4eb4f ^ s.WalLSN*0x165667b19e3779f9
	if s.CacheHit {
		h ^= 0x27d4eb2f165667c5
	}
	return h
}

// reset sizes the table for n slots (load factor at most one half).
//
//ips:hotpath
func (enc *BatchV2Encoder) reset(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	if cap(enc.table) < size {
		//ipslint:ignore hotpathalloc the dedupe table grows to the largest batch once, then is reused
		enc.table = make([]int32, size)
		//ipslint:ignore hotpathalloc the dedupe table grows to the largest batch once, then is reused
		enc.hashes = make([]uint64, size)
	}
	enc.table = enc.table[:size]
	enc.hashes = enc.hashes[:size]
	clear(enc.table)
	if cap(enc.refs) < n {
		//ipslint:ignore hotpathalloc reference storage grows to the largest batch once, then is reused
		enc.refs = make([]uint32, n)
	}
	enc.refs = enc.refs[:n]
}

// Append writes the v2 frame for slots, in slot order, into dst's
// storage and returns the extended slice: first each distinct response
// once as a blob (first-use order), then one result message per slot
// carrying its error and blob reference.
//
//ips:hotpath
func (enc *BatchV2Encoder) Append(dst []byte, slots []BatchSlot) []byte {
	enc.reset(len(slots))
	mask := uint64(len(enc.table) - 1)
	var e codec.Buffer
	e.Attach(dst)
	blobs := uint32(0)
	for i := range slots {
		s := &slots[i]
		enc.refs[i] = 0
		if !s.hasResp() {
			continue
		}
		h := enc.slotHash(s)
		for j := h & mask; ; j = (j + 1) & mask {
			c := enc.table[j]
			if c == 0 {
				blobs++
				enc.table[j] = int32(i + 1)
				enc.hashes[j] = h
				enc.refs[i] = blobs
				start := e.BeginMessage(fB2Blob)
				e.Append(s.Feats)
				appendResponseTrailer(&e, s.SlicesScanned, s.CacheHit, s.ServerNanos, s.WalLSN)
				e.EndMessage(start)
				break
			}
			if enc.hashes[j] == h && sameResp(&slots[c-1], s) {
				enc.refs[i] = enc.refs[c-1]
				break
			}
		}
	}
	for i := range slots {
		start := e.BeginMessage(fB2Result)
		e.String(fB2RErr, slots[i].Err)
		if ref := enc.refs[i]; ref != 0 {
			e.Uint32(fB2RRef, ref)
		}
		e.EndMessage(start)
	}
	return e.Detach()
}

// EncodeQueryBatchResponseV2 serializes a BatchQueryResponse with
// shared-structure encoding into a fresh slice.
func EncodeQueryBatchResponseV2(r *BatchQueryResponse) []byte {
	return AppendQueryBatchResponseV2(nil, r)
}

// AppendQueryBatchResponseV2 serializes a BatchQueryResponse with
// shared-structure encoding into dst's storage: each distinct response
// body is written once, and duplicate slots cost one varint reference
// each. Distinctness is judged on the encoded bytes, so two slots share
// a blob exactly when the v1 encoding would have carried identical
// copies. The server's executor builds its slots directly and calls
// BatchV2Encoder itself.
func AppendQueryBatchResponseV2(dst []byte, r *BatchQueryResponse) []byte {
	slots := make([]BatchSlot, len(r.Results))
	ends := make([]int, len(r.Results))
	var feats []byte
	for i := range r.Results {
		br := &r.Results[i]
		slots[i].Err = br.Err
		if resp := br.Resp; resp != nil {
			s := &slots[i]
			s.OK, s.SlicesScanned, s.CacheHit = true, resp.SlicesScanned, resp.CacheHit
			s.ServerNanos, s.WalLSN = resp.ServerNanos, resp.WalLSN
			feats = AppendQueryFeatures(feats, resp.Features)
		}
		ends[i] = len(feats)
	}
	// Slice the feature bytes only now: the buffer moved as it grew.
	from := 0
	for i := range slots {
		slots[i].Feats = feats[from:ends[i]]
		from = ends[i]
	}
	var enc BatchV2Encoder
	return enc.Append(dst, slots)
}

// DecodeQueryBatchResponseV2 parses a shared-structure batch response.
// Each blob is decoded once; slots referencing the same blob SHARE the
// decoded *QueryResponse, so callers must treat batch results as
// read-only (the client does). A reference past the blob pool is a
// decode error — references are resolved after the full frame is read,
// so blob/result field order does not matter on hostile input. The
// failed-slot invariant of v1 holds here too: a slot with a non-empty
// Err never carries a response, whatever its ref says.
//
// The decode sizes the frame first, then carves every distinct response,
// its Features and every count vector from one arena per batch: a
// constant number of allocations however many slots and features the
// frame carries (plus one string per failed slot). The arenas belong to
// the returned value alone — nothing is pooled — so results stay valid
// and unchanged for as long as the caller keeps them.
func DecodeQueryBatchResponseV2(data []byte) (*BatchQueryResponse, error) {
	// Pass 1 sizes the arenas; it walks the frame exactly as pass 2 does.
	var sz v2Arena
	sz.sizing = true
	if err := sz.decodeBlobs(data); err != nil {
		return nil, err
	}
	a := &v2Arena{
		resps:  make([]QueryResponse, sz.nresp),
		feats:  make([]query.Feature, sz.nfeat),
		counts: make([]int64, sz.ncount),
	}
	if err := a.decodeBlobs(data); err != nil {
		return nil, err
	}
	// Results go last, once every blob is decoded, so a reference may
	// precede its blob in the frame.
	r := &BatchQueryResponse{}
	if sz.nresult > 0 {
		r.Results = make([]BatchResult, 0, sz.nresult)
	}
	var rd codec.Reader
	rd.Reset(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("batch2", err)
		}
		switch f {
		case fB2Blob:
			if _, err := rd.Bytes(); err != nil {
				return nil, decodeErr("batch2 blob", err)
			}
		case fB2Result:
			var sub codec.Reader
			if err := rd.Sub(&sub); err != nil {
				return nil, decodeErr("batch2 result", err)
			}
			var br BatchResult
			var ref uint32
			for !sub.Done() {
				sf, swt, err := sub.Next()
				if err != nil {
					return nil, decodeErr("batch2 result field", err)
				}
				switch sf {
				case fB2RErr:
					if br.Err, err = sub.String(); err != nil {
						return nil, decodeErr("batch2 result err", err)
					}
				case fB2RRef:
					if ref, err = sub.Uint32(); err != nil {
						return nil, decodeErr("batch2 result ref", err)
					}
				default:
					if err := sub.Skip(swt); err != nil {
						return nil, decodeErr("batch2 result skip", err)
					}
				}
			}
			if ref != 0 && br.Err == "" {
				if int(ref) > len(a.resps) {
					return nil, fmt.Errorf("wire: batch2 result %d references blob %d of %d", len(r.Results), ref, len(a.resps))
				}
				br.Resp = &a.resps[ref-1]
			}
			r.Results = append(r.Results, br)
		default:
			if err := rd.Skip(wt); err != nil {
				return nil, decodeErr("batch2 skip", err)
			}
		}
	}
	return r, nil
}

// v2Arena is one decoded batch's storage: every response, feature and
// count vector of the frame. A sizing arena runs the same walk without
// storing anything and counts what the storing walk will need, so the
// two passes cannot disagree about the frame's structure.
type v2Arena struct {
	sizing bool
	resps  []QueryResponse
	feats  []query.Feature
	counts []int64
	// nresp, nfeat and ncount are the used lengths of the arenas (the
	// needed lengths, when sizing); nresult counts result messages.
	nresp, nfeat, ncount, nresult int
}

// decodeBlobs decodes every blob of the frame into the arena and counts
// the result messages.
func (a *v2Arena) decodeBlobs(data []byte) error {
	var rd codec.Reader
	rd.Reset(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return decodeErr("batch2", err)
		}
		switch f {
		case fB2Blob:
			b, err := rd.Bytes()
			if err != nil {
				return decodeErr("batch2 blob", err)
			}
			if err := a.decodeBlob(b); err != nil {
				return err
			}
		case fB2Result:
			if _, err := rd.Bytes(); err != nil {
				return decodeErr("batch2 result", err)
			}
			a.nresult++
		default:
			if err := rd.Skip(wt); err != nil {
				return decodeErr("batch2 skip", err)
			}
		}
	}
	return nil
}

// decodeBlob decodes one pooled response into the arena, with the
// semantics of DecodeQueryResponse: repeated scalar fields keep the last
// value, a repeated counts field replaces the earlier one, and empty
// feature lists and count vectors decode as nil.
func (a *v2Arena) decodeBlob(data []byte) error {
	// A sizing walk decodes into throwaway locals.
	var r QueryResponse
	var scratch query.Feature
	if !a.sizing && a.nresp >= len(a.resps) {
		return decodeErr("batch2 blob", errArenaSize)
	}
	first := a.nfeat
	var rd codec.Reader
	rd.Reset(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return decodeErr("resp", err)
		}
		switch f {
		case fRFeature:
			var sub codec.Reader
			if err := rd.Sub(&sub); err != nil {
				return decodeErr("feature", err)
			}
			feat := &scratch
			if !a.sizing {
				if a.nfeat >= len(a.feats) {
					return decodeErr("feature", errArenaSize)
				}
				feat = &a.feats[a.nfeat]
			}
			a.nfeat++
			longest := 0
			for !sub.Done() {
				f2, wt2, err := sub.Next()
				if err != nil {
					return decodeErr("feature field", err)
				}
				switch f2 {
				case fFeatFID:
					feat.FID, err = sub.Uint64()
				case fFeatCounts:
					var n int
					n, err = a.decodeCounts(&sub, feat)
					if n > longest {
						longest = n
					}
				case fFeatLastSeen:
					feat.LastSeen, err = sub.Int64()
				case fFeatScore:
					feat.Score, err = sub.Float64()
				default:
					err = sub.Skip(wt2)
				}
				if err != nil {
					return decodeErr("feature field", err)
				}
			}
			// A sizing walk reserves the longest counts field (a repeated
			// field overwrites the earlier one in place); a storing walk
			// claims what the last one used.
			if a.sizing {
				a.ncount += longest
			} else {
				a.ncount += len(feat.Counts)
			}
		case fRScanned:
			v, err := rd.Int64()
			if err != nil {
				return decodeErr("scanned", err)
			}
			r.SlicesScanned = int(v)
		case fRHit:
			var err error
			if r.CacheHit, err = rd.Bool(); err != nil {
				return decodeErr("hit", err)
			}
		case fRNanos:
			var err error
			if r.ServerNanos, err = rd.Int64(); err != nil {
				return decodeErr("nanos", err)
			}
		case fRWal:
			var err error
			if r.WalLSN, err = rd.Uint64(); err != nil {
				return decodeErr("wal", err)
			}
		default:
			if err := rd.Skip(wt); err != nil {
				return decodeErr("skip", err)
			}
		}
	}
	if a.sizing {
		a.nresp++
		return nil
	}
	if a.nfeat > first {
		r.Features = a.feats[first:a.nfeat:a.nfeat]
	}
	a.resps[a.nresp] = r
	a.nresp++
	return nil
}

// decodeCounts reads one packed count field. Sizing, it only counts the
// varints — every varint ends in exactly one byte below 0x80. Storing,
// it decodes into the arena after the vectors already claimed.
func (a *v2Arena) decodeCounts(sub *codec.Reader, feat *query.Feature) (int, error) {
	if a.sizing {
		packed, err := sub.Bytes()
		n := 0
		for _, c := range packed {
			if c < 0x80 {
				n++
			}
		}
		return n, err
	}
	free := a.counts[a.ncount:]
	out, err := sub.PackedI64Into(free[:0])
	if err != nil {
		return 0, err
	}
	if len(out) > len(free) {
		return 0, errArenaSize
	}
	feat.Counts = nil
	if len(out) > 0 {
		feat.Counts = free[:len(out):len(out)]
	}
	return len(out), nil
}

// errArenaSize reports a frame whose storing walk needs more than its
// sizing walk counted — only malformed input can do that.
var errArenaSize = errors.New("arena sizing mismatch")
