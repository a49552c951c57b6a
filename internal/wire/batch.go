package wire

import (
	"ips/internal/codec"
)

// MethodQueryBatch carries N independent sub-queries (any mix of topK /
// filter / decay semantics) in one RPC. Ranking requests need features for
// hundreds of candidates per user request (§II, §IV); batching turns N
// per-profile round trips into one per owning instance, which is the
// dominant tail-latency lever for that workload.
const MethodQueryBatch = "ips.query_batch"

// BatchOp names the read semantics of one sub-query, mirroring the three
// single-query methods. The server resolves semantics from the request
// fields themselves (exactly as the single-query handlers do), so Op is
// carried for symmetry with the single-call API and for tooling.
type BatchOp uint8

// Sub-query operations.
const (
	OpTopK BatchOp = iota
	OpFilter
	OpDecay
)

// Method returns the single-query method name equivalent to the op.
func (op BatchOp) Method() string {
	switch op {
	case OpFilter:
		return MethodFilter
	case OpDecay:
		return MethodDecay
	default:
		return MethodTopK
	}
}

// SubQuery is one element of a batch: an operation plus its request.
type SubQuery struct {
	Op    BatchOp
	Query QueryRequest
}

// BatchQueryRequest is the ips.query_batch request payload. The top-level
// Caller applies to every sub-query (one upstream application issues the
// whole batch); per-sub Caller fields are ignored by the server.
type BatchQueryRequest struct {
	Caller string
	Subs   []SubQuery
}

// BatchResult is the outcome of one sub-query. Err is empty on success;
// when set, Resp is nil and the sub-query failed server-side (unknown
// table, bad range, quota rejection, ...). Failures are per-slot: one bad
// sub-query never poisons its batch.
type BatchResult struct {
	Err  string
	Resp *QueryResponse
}

// BatchQueryResponse carries one BatchResult per sub-query, in request
// order.
type BatchQueryResponse struct {
	Results []BatchResult
}

// Field numbers for the batch messages.
const (
	fBQCaller = 1
	fBQSub    = 2

	fSubOp    = 1
	fSubQuery = 2

	fBRResult = 1

	fBRErr  = 1
	fBRResp = 2
)

// EncodeQueryBatch serializes a BatchQueryRequest into a fresh slice.
func EncodeQueryBatch(r *BatchQueryRequest) []byte {
	return AppendQueryBatch(nil, r)
}

// AppendQueryBatch serializes a BatchQueryRequest into dst's storage and
// returns the extended slice. Each sub-query embeds its QueryRequest
// through the single-query field encoder, so the two paths cannot drift
// apart, and nested messages use the closure-free BeginMessage/EndMessage
// pair: with a reused dst the encode allocates nothing.
//
//ips:hotpath
func AppendQueryBatch(dst []byte, r *BatchQueryRequest) []byte {
	var e codec.Buffer
	e.Attach(dst)
	e.String(fBQCaller, r.Caller)
	for i := range r.Subs {
		sub := &r.Subs[i]
		start := e.BeginMessage(fBQSub)
		e.Uint32(fSubOp, uint32(sub.Op))
		qstart := e.BeginMessage(fSubQuery)
		appendQueryFields(&e, &sub.Query)
		e.EndMessage(qstart)
		e.EndMessage(start)
	}
	return e.Detach()
}

// DecodeQueryBatch parses a BatchQueryRequest into fresh storage.
func DecodeQueryBatch(data []byte) (*BatchQueryRequest, error) {
	r := &BatchQueryRequest{}
	if err := DecodeQueryBatchInto(data, r, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// DecodeQueryBatchInto parses a BatchQueryRequest into caller-owned
// (typically pooled) storage, reusing its Subs slice and each sub-query's
// FIDs storage. Strings go through the Interner (nil copies), so a warmed
// decode of a steady-state batch allocates nothing.
//
//ips:hotpath
func DecodeQueryBatchInto(data []byte, r *BatchQueryRequest, in *Interner) error {
	subs := r.Subs[:0]
	r.Caller = ""
	var rd codec.Reader
	rd.Reset(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return decodeErr("batch", err)
		}
		switch f {
		case fBQCaller:
			var b []byte
			if b, err = rd.Bytes(); err != nil {
				return decodeErr("batch caller", err)
			}
			r.Caller = in.Intern(b)
		case fBQSub:
			var sub codec.Reader
			if err := rd.Sub(&sub); err != nil {
				return decodeErr("batch sub", err)
			}
			// Reuse the element (and its FIDs backing) when one is
			// resident from an earlier decode.
			if n := len(subs); n < cap(subs) {
				subs = subs[:n+1]
			} else {
				//ipslint:ignore hotpathalloc pooled request storage grows to the largest batch once, then is reused
				subs = append(subs, SubQuery{})
			}
			if err := decodeSubQueryInto(&sub, &subs[len(subs)-1], in); err != nil {
				r.Subs = subs
				return err
			}
		default:
			if err := rd.Skip(wt); err != nil {
				return decodeErr("batch skip", err)
			}
		}
	}
	r.Subs = subs
	return nil
}

//ips:hotpath
func decodeSubQueryInto(rd *codec.Reader, sq *SubQuery, in *Interner) error {
	fids := sq.Query.FIDs[:0]
	*sq = SubQuery{}
	sq.Query.FIDs = fids
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return decodeErr("sub field", err)
		}
		switch f {
		case fSubOp:
			var v uint32
			if v, err = rd.Uint32(); err != nil {
				return decodeErr("sub op", err)
			}
			sq.Op = BatchOp(v)
		case fSubQuery:
			raw, err := rd.Bytes()
			if err != nil {
				return decodeErr("sub query", err)
			}
			if err := DecodeQueryInto(raw, &sq.Query, in); err != nil {
				return err
			}
		default:
			if err := rd.Skip(wt); err != nil {
				return decodeErr("sub skip", err)
			}
		}
	}
	return nil
}

// EncodeQueryBatchResponse serializes a BatchQueryResponse. The response
// field is only written for successful slots, so a decoded failure keeps
// Resp == nil.
func EncodeQueryBatchResponse(r *BatchQueryResponse) []byte {
	var e codec.Buffer
	for i := range r.Results {
		br := &r.Results[i]
		start := e.BeginMessage(fBRResult)
		e.String(fBRErr, br.Err)
		if br.Resp != nil {
			rstart := e.BeginMessage(fBRResp)
			appendQueryResponseFields(&e, br.Resp)
			e.EndMessage(rstart)
		}
		e.EndMessage(start)
	}
	return e.Detach()
}

// DecodeQueryBatchResponse parses a BatchQueryResponse.
func DecodeQueryBatchResponse(data []byte) (*BatchQueryResponse, error) {
	r := &BatchQueryResponse{}
	rd := codec.NewReader(data)
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return nil, decodeErr("batch resp", err)
		}
		switch f {
		case fBRResult:
			sub, err := rd.Message()
			if err != nil {
				return nil, decodeErr("batch result", err)
			}
			br, err := decodeBatchResult(sub)
			if err != nil {
				return nil, err
			}
			r.Results = append(r.Results, br)
		default:
			if err := rd.Skip(wt); err != nil {
				return nil, decodeErr("batch resp skip", err)
			}
		}
	}
	return r, nil
}

func decodeBatchResult(rd *codec.Reader) (BatchResult, error) {
	var br BatchResult
	for !rd.Done() {
		f, wt, err := rd.Next()
		if err != nil {
			return br, decodeErr("result field", err)
		}
		switch f {
		case fBRErr:
			if br.Err, err = rd.String(); err != nil {
				return br, decodeErr("result err", err)
			}
		case fBRResp:
			raw, err := rd.Bytes()
			if err != nil {
				return br, decodeErr("result resp", err)
			}
			resp, err := DecodeQueryResponse(raw)
			if err != nil {
				return br, err
			}
			br.Resp = resp
		default:
			if err := rd.Skip(wt); err != nil {
				return br, decodeErr("result skip", err)
			}
		}
	}
	// Enforce the slot invariant on arbitrary input: a failed slot never
	// carries a response.
	if br.Err != "" {
		br.Resp = nil
	}
	return br, nil
}
