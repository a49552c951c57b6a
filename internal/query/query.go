// Package query implements the IPS read path (§II-B2): locating the slices
// that fall into a requested time range, multi-way merging and aggregating
// feature counts, applying optional time-decay, filtering, and final
// sorting / top-K selection.
//
// Queries operate on a snapshot of a profile's slice list taken under the
// profile's read lock, so computation proceeds without blocking writers.
package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"ips/internal/model"
)

// RangeKind selects how a query's time window is interpreted (§II-B2).
type RangeKind uint8

// Supported time-range kinds.
const (
	// Current windows end at the query's "now": [now-Span, now).
	Current RangeKind = iota
	// Relative windows end at the profile's most recent action:
	// [latest-Span, latest].
	Relative
	// Absolute windows are given explicitly: [From, To).
	Absolute
)

// String names the range kind as the paper does.
func (k RangeKind) String() string {
	switch k {
	case Current:
		return "CURRENT"
	case Relative:
		return "RELATIVE"
	case Absolute:
		return "ABSOLUTE"
	default:
		return fmt.Sprintf("RangeKind(%d)", uint8(k))
	}
}

// TimeRange specifies the queried window.
type TimeRange struct {
	Kind RangeKind
	// Span is the window length in milliseconds for Current and Relative
	// ranges.
	Span model.Millis
	// From and To bound Absolute ranges: [From, To).
	From, To model.Millis
}

// CurrentRange returns a CURRENT range covering the last span milliseconds.
func CurrentRange(span model.Millis) TimeRange {
	return TimeRange{Kind: Current, Span: span}
}

// RelativeRange returns a RELATIVE range covering span milliseconds back
// from the profile's most recent action.
func RelativeRange(span model.Millis) TimeRange {
	return TimeRange{Kind: Relative, Span: span}
}

// AbsoluteRange returns an ABSOLUTE range [from, to).
func AbsoluteRange(from, to model.Millis) TimeRange {
	return TimeRange{Kind: Absolute, From: from, To: to}
}

// Resolve converts the range to absolute bounds given the query time and
// the profile's latest event timestamp.
//
//ips:hotpath-trust error construction only runs on invalid ranges, off the steady state
func (r TimeRange) Resolve(now, latest model.Millis) (from, to model.Millis, err error) {
	switch r.Kind {
	case Current:
		if r.Span <= 0 {
			return 0, 0, errors.New("query: CURRENT range needs positive span")
		}
		// Inclusive of "the current moment": an event stamped exactly now
		// is part of the window.
		return now - r.Span, now + 1, nil
	case Relative:
		if r.Span <= 0 {
			return 0, 0, errors.New("query: RELATIVE range needs positive span")
		}
		// Inclusive of the latest event itself.
		return latest - r.Span, latest + 1, nil
	case Absolute:
		if r.From >= r.To {
			return 0, 0, fmt.Errorf("query: ABSOLUTE range [%d,%d) is empty", r.From, r.To)
		}
		return r.From, r.To, nil
	default:
		return 0, 0, fmt.Errorf("query: unknown range kind %d", r.Kind)
	}
}

// SortBy selects the final ordering of aggregated features (§II-B2: sort by
// a certain attribute count, timestamp, or feature id).
type SortBy uint8

// Supported sort types.
const (
	// ByAction sorts by one action-count attribute, descending.
	ByAction SortBy = iota
	// ByTimestamp sorts by the most recent slice a feature appeared in,
	// descending (most recent first).
	ByTimestamp
	// ByFeatureID sorts by FID ascending, giving a deterministic order.
	ByFeatureID
	// ByTotal sorts by the sum of all action counts, descending.
	ByTotal
	// ByUDAF sorts by a user-defined aggregate function's score,
	// descending; the Request carries the function (or its registered
	// name, resolved by the server).
	ByUDAF
)

// DecayFunc identifies the decay function applied to older slices
// (§II-B2, get_profile_decay).
type DecayFunc uint8

// Supported decay functions.
const (
	// DecayNone applies no decay.
	DecayNone DecayFunc = iota
	// DecayExp multiplies counts by factor^age, where age is the slice's
	// distance from the window end in units of the slice's own width.
	DecayExp
	// DecayLinear multiplies counts by max(0, 1 - factor*ageFraction)
	// where ageFraction is the slice age divided by the window length.
	DecayLinear
	// DecayStep zeroes counts older than factor fraction of the window.
	DecayStep
)

// Filter restricts which features survive aggregation.
type Filter struct {
	// MinCount drops features whose sort attribute is below the bound.
	MinCount int64
	// FIDs, when non-nil, keeps only the listed feature IDs.
	FIDs map[model.FeatureID]bool
	// Predicate, when non-nil, is applied last to each aggregated feature.
	Predicate func(Feature) bool
}

// Request describes one feature query against a single profile.
type Request struct {
	Slot model.SlotID
	Type model.TypeID
	// AllTypes aggregates across every type in the slot, ignoring Type.
	AllTypes bool
	Range    TimeRange
	// SortBy picks the ordering; Action names the attribute for ByAction.
	SortBy SortBy
	Action string
	// K limits the result count; K <= 0 returns everything.
	K int
	// Decay and DecayFactor configure optional time decay.
	Decay       DecayFunc
	DecayFactor float64
	// Filter restricts the result set.
	Filter *Filter
	// UDAF scores each aggregated feature when SortBy is ByUDAF; it also
	// populates Feature.Score. Remote callers name a registered function
	// instead (resolved to this field by the server).
	UDAF UDAF
	// MinScore drops features whose UDAF score is below the bound
	// (requires UDAF).
	MinScore float64
}

// Feature is one aggregated feature in a query result.
type Feature struct {
	FID model.FeatureID
	// Counts is the aggregated (possibly decayed) count vector.
	Counts []int64
	// LastSeen is the newest slice-end the feature appeared in, a proxy
	// for recency used by ByTimestamp sorting.
	LastSeen model.Millis
	// Score is the UDAF result when the query used one.
	Score float64
}

// Result is a query response.
type Result struct {
	Features []Feature
	// SlicesScanned counts the slices that overlapped the window, a cost
	// metric surfaced to the benchmark harness.
	SlicesScanned int
}

// errUDAFRequired is preallocated so the invalid-request check stays off
// the allocation profile of the hot path that performs it.
var errUDAFRequired = errors.New("query: ByUDAF requires a UDAF")

// Scratch holds the reusable working storage for query execution: the
// feature accumulator (fid index map, flat Feature slice, count-vector
// arena) plus top-K selection state. A warmed Scratch lets the whole
// aggregation pipeline run without heap allocation — the zero-alloc read
// path the paper's serving shape demands.
//
// A Result produced through a Scratch aliases its storage: it is valid
// only until the next run with the same Scratch. Callers that retain
// results must copy them out first. A Scratch is not safe for concurrent
// use.
type Scratch struct {
	idx   map[model.FeatureID]int32
	feats []Feature
	arena []int64
	width int

	heap []int32
	out  []Feature

	sorter  featureSorter
	hsorter heapSorter
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch returns a pooled Scratch.
//
//ips:hotpath-trust pool misses allocate once; the steady state recycles
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch recycles sc. The caller must be done with every Result
// produced through it — their Features alias the scratch storage.
//
//ips:hotpath
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// reset prepares the scratch for a run over count vectors of the given
// width, retaining all backing storage from previous runs.
//
//ips:hotpath
func (sc *Scratch) reset(width int) {
	if sc.idx == nil {
		//ipslint:ignore hotpathalloc first use of a scratch builds its index map; reuse clears it in place
		sc.idx = make(map[model.FeatureID]int32, 64)
	} else {
		clear(sc.idx)
	}
	sc.feats = sc.feats[:0]
	sc.arena = sc.arena[:0]
	sc.width = width
}

// get returns the Feature accumulating fid, creating it on first sight.
// The returned pointer is valid until the next get call appends to feats;
// callers use it immediately.
//
//ips:hotpath
func (sc *Scratch) get(fid model.FeatureID) *Feature {
	if i, ok := sc.idx[fid]; ok {
		return &sc.feats[i]
	}
	if cap(sc.arena)-len(sc.arena) < sc.width {
		// Doubling means the newest chunk alone eventually covers a whole
		// steady-state run, so reuse reaches zero allocations. Vectors
		// carved from abandoned chunks stay valid — feats still points at
		// them.
		grow := 2 * cap(sc.arena)
		if min := 64 * sc.width; grow < min {
			grow = min
		}
		//ipslint:ignore hotpathalloc arena growth amortizes away under scratch reuse
		sc.arena = make([]int64, 0, grow)
	}
	n := len(sc.arena)
	sc.arena = sc.arena[:n+sc.width]
	counts := sc.arena[n : n+sc.width : n+sc.width]
	clear(counts)
	sc.idx[fid] = int32(len(sc.feats))
	sc.feats = append(sc.feats, Feature{FID: fid, Counts: counts})
	return &sc.feats[len(sc.feats)-1]
}

// accumulate merges one slice's feature stats for one type into the
// accumulator with weight w; end stamps recency.
//
//ips:hotpath
func (sc *Scratch) accumulate(schema *model.Schema, fs *model.FeatureStats, w float64, end model.Millis) {
	for _, st := range fs.View() {
		f := sc.get(st.FID)
		for i, c := range st.Counts {
			if i >= len(f.Counts) {
				break
			}
			f.Counts[i] = schemaReduceMerge(schema, i, f.Counts[i], weighted(c, w))
		}
		if end > f.LastSeen {
			f.LastSeen = end
		}
	}
}

// Run executes the request against the profile at the given query time,
// holding the profile's read lock for the duration: the head slice is
// mutable, so reading its feature maps without the lock would race with
// writers. Keeping writers out of large profiles during queries is
// exactly the contention the paper's read-write isolation (§III-F)
// relieves — with isolation on, online writes land in the small write
// table instead of these locked main-table profiles.
//
// Run allocates fresh result storage per call; latency-critical callers
// reuse storage via RunScratch.
func Run(p *model.Profile, schema *model.Schema, req Request, now model.Millis) (Result, error) {
	var sc Scratch
	return RunScratch(p, schema, req, now, &sc)
}

// RunScratch is Run with caller-owned (typically pooled) working storage.
// The Result aliases sc's storage and is valid until sc's next run.
//
//ips:hotpath
func RunScratch(p *model.Profile, schema *model.Schema, req Request, now model.Millis, sc *Scratch) (Result, error) {
	p.RLock()
	defer p.RUnlock()
	return runOnSlices(p.Slices(), schema, req, now, p.Latest(), sc)
}

// RunSealed is Run for a profile the caller guarantees no writer can
// reach — GCache's hot read replicas, which are private clones
// invalidated (never mutated) on write. Skipping the read lock matters
// precisely where hot replicas are used: thousands of concurrent readers
// of one Zipf-head profile would otherwise all bounce the same
// RWMutex reader-count cache line even though none of them blocks.
func RunSealed(p *model.Profile, schema *model.Schema, req Request, now model.Millis) (Result, error) {
	var sc Scratch
	return RunSealedScratch(p, schema, req, now, &sc)
}

// RunSealedScratch is RunSealed with caller-owned working storage, the
// zero-allocation fast path for cache-hit reads off hot replicas.
//
//ips:hotpath
func RunSealedScratch(p *model.Profile, schema *model.Schema, req Request, now model.Millis, sc *Scratch) (Result, error) {
	return runOnSlices(p.Slices(), schema, req, now, p.Latest(), sc)
}

// RunOnSlices executes the request against an explicit slice list (newest
// first). The caller must guarantee the slices are not concurrently
// mutated (e.g. by holding the owning profile's read lock, or operating
// on sealed copies).
func RunOnSlices(slices []*model.Slice, schema *model.Schema, req Request, now, latest model.Millis) (Result, error) {
	var sc Scratch
	return runOnSlices(slices, schema, req, now, latest, &sc)
}

//ips:hotpath
func runOnSlices(slices []*model.Slice, schema *model.Schema, req Request, now, latest model.Millis, sc *Scratch) (Result, error) {
	from, to, err := req.Range.Resolve(now, latest)
	if err != nil {
		return Result{}, err
	}
	actionIdx := 0
	if req.SortBy == ByAction {
		if req.Action != "" {
			if actionIdx, err = schema.ActionIndex(req.Action); err != nil {
				return Result{}, err
			}
		}
	}

	// Step 1 (§II-B2): locate the slices in range. Step 2: multi-way merge
	// and aggregate over all features under the requested slot. The
	// accumulator is a flat Feature slice addressed through a fid index
	// (one map entry, no per-feature pointer), with all count vectors
	// carved from the scratch's arena.
	sc.reset(schema.NumActions())
	scanned := 0
	for _, s := range slices {
		if !s.Overlaps(from, to) {
			continue
		}
		scanned++
		set := s.Slot(req.Slot)
		if set == nil {
			continue
		}
		w := decayWeight(req, s, from, to)
		if w == 0 {
			continue
		}
		end := s.End
		if req.AllTypes {
			//ipslint:ignore hotpathalloc all-types fan-out is an analytics shape, off the steady-state topK path
			set.Each(func(_ model.TypeID, fs *model.FeatureStats) { sc.accumulate(schema, fs, w, end) })
		} else if fs := set.Get(req.Type); fs != nil {
			sc.accumulate(schema, fs, w, end)
		}
	}

	if req.SortBy == ByUDAF && req.UDAF == nil {
		return Result{}, errUDAFRequired
	}
	feats := sc.feats
	kept := feats[:0]
	for i := range feats {
		f := &feats[i]
		if req.UDAF != nil {
			//ipslint:ignore hotpathalloc UDAF scoring is a dynamic call by design, off the default topK shape
			f.Score = req.UDAF(f.Counts)
			if f.Score < req.MinScore {
				continue
			}
		}
		if keep(req.Filter, f, actionIdx) {
			kept = append(kept, *f)
		}
	}

	if req.K > 0 && len(kept) > 2*req.K {
		// Partial selection: keep only the top K via an index heap, then
		// sort those K — avoids moving full Feature structs through a
		// complete sort when K << N (the common serving shape).
		kept = sc.selectTop(kept, req.K, req.SortBy, actionIdx)
	} else {
		sc.sorter = featureSorter{feats: kept, by: req.SortBy, actionIdx: actionIdx}
		sort.Sort(&sc.sorter)
		sc.sorter.feats = nil
		if req.K > 0 && len(kept) > req.K {
			kept = kept[:req.K]
		}
	}
	return Result{Features: kept, SlicesScanned: scanned}, nil
}

// selectTop returns the top k features, sorted, using the scratch's heap
// and output storage. It operates on indices so Feature structs move only
// once, at the end.
//
//ips:hotpath
func (sc *Scratch) selectTop(feats []Feature, k int, by SortBy, actionIdx int) []Feature {
	// Max-heap of the "weakest" current member at the root: heap[0] is
	// the element that would be evicted first.
	heap := sc.heap[:0]
	for i := range feats {
		idx := int32(i)
		if len(heap) < k {
			heap = append(heap, idx)
			siftUp(heap, feats, by, actionIdx, len(heap)-1)
			continue
		}
		// Replace the root if the candidate beats the weakest member.
		if cmpFeatures(by, actionIdx, &feats[idx], &feats[heap[0]]) {
			heap[0] = idx
			siftDown(heap, feats, by, actionIdx, 0)
		}
	}
	sc.heap = heap
	sc.hsorter = heapSorter{heap: heap, feats: feats, by: by, actionIdx: actionIdx}
	sort.Sort(&sc.hsorter)
	sc.hsorter = heapSorter{}
	out := sc.out[:0]
	for _, idx := range heap {
		out = append(out, feats[idx])
	}
	sc.out = out
	return out
}

// worse reports whether index i's feature sorts after index j's — i would
// be evicted from the top-K set before j.
//
//ips:hotpath
func worse(feats []Feature, by SortBy, actionIdx int, i, j int32) bool {
	return cmpFeatures(by, actionIdx, &feats[j], &feats[i])
}

//ips:hotpath
func siftDown(heap []int32, feats []Feature, by SortBy, actionIdx, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(heap) && worse(feats, by, actionIdx, heap[l], heap[worst]) {
			worst = l
		}
		if r < len(heap) && worse(feats, by, actionIdx, heap[r], heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		heap[i], heap[worst] = heap[worst], heap[i]
		i = worst
	}
}

//ips:hotpath
func siftUp(heap []int32, feats []Feature, by SortBy, actionIdx, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(feats, by, actionIdx, heap[i], heap[parent]) {
			return
		}
		heap[i], heap[parent] = heap[parent], heap[i]
		i = parent
	}
}

// featureSorter sorts a Feature slice in place under cmpFeatures; a
// pointer to a scratch-resident instance passes through sort.Sort without
// boxing allocation.
type featureSorter struct {
	feats     []Feature
	by        SortBy
	actionIdx int
}

//ips:hotpath
func (s *featureSorter) Len() int { return len(s.feats) }

//ips:hotpath
func (s *featureSorter) Less(i, j int) bool {
	return cmpFeatures(s.by, s.actionIdx, &s.feats[i], &s.feats[j])
}

//ips:hotpath
func (s *featureSorter) Swap(i, j int) { s.feats[i], s.feats[j] = s.feats[j], s.feats[i] }

// heapSorter sorts the index heap for final top-K output ordering.
type heapSorter struct {
	heap      []int32
	feats     []Feature
	by        SortBy
	actionIdx int
}

//ips:hotpath
func (h *heapSorter) Len() int { return len(h.heap) }

//ips:hotpath
func (h *heapSorter) Less(i, j int) bool {
	return cmpFeatures(h.by, h.actionIdx, &h.feats[h.heap[i]], &h.feats[h.heap[j]])
}

//ips:hotpath
func (h *heapSorter) Swap(i, j int) { h.heap[i], h.heap[j] = h.heap[j], h.heap[i] }

// schemaReduceMerge merges one attribute across slices. Window aggregation
// honours the schema's reducer so LAST/MAX semantics survive the merge: the
// slice list is iterated newest-first, so for ReduceLast the first value
// seen wins.
//
//ips:hotpath
func schemaReduceMerge(schema *model.Schema, i int, have, incoming int64) int64 {
	switch r := reducerOf(schema, i); r {
	case model.ReduceSum:
		return have + incoming
	case model.ReduceMax:
		if incoming > have {
			return incoming
		}
		return have
	case model.ReduceMin:
		if incoming < have {
			return incoming
		}
		return have
	case model.ReduceLast:
		if have == 0 {
			return incoming
		}
		return have
	default:
		return have + incoming
	}
}

//ips:hotpath
func reducerOf(s *model.Schema, i int) model.Reduce {
	if s.Reducers == nil || i >= len(s.Reducers) {
		return model.ReduceSum
	}
	return s.Reducers[i]
}

//ips:hotpath
func weighted(c int64, w float64) int64 {
	if w == 1 {
		return c
	}
	return int64(math.Round(float64(c) * w))
}

// decayWeight computes the decay multiplier for a slice inside the window.
//
//ips:hotpath
func decayWeight(req Request, s *model.Slice, from, to model.Millis) float64 {
	if req.Decay == DecayNone {
		return 1
	}
	window := float64(to - from)
	if window <= 0 {
		return 1
	}
	// Age of the slice's midpoint relative to the window end.
	mid := float64(s.Start+s.End) / 2
	age := float64(to) - mid
	if age < 0 {
		age = 0
	}
	frac := age / window
	switch req.Decay {
	case DecayExp:
		// factor in (0,1]; weight = factor^(age in slice-widths), with a
		// floor of one width so head slices are not over-weighted.
		width := float64(s.Width())
		if width <= 0 {
			width = 1
		}
		f := req.DecayFactor
		if f <= 0 || f > 1 {
			f = 0.5
		}
		return math.Pow(f, age/width)
	case DecayLinear:
		f := req.DecayFactor
		if f <= 0 {
			f = 1
		}
		w := 1 - f*frac
		if w < 0 {
			return 0
		}
		return w
	case DecayStep:
		f := req.DecayFactor
		if f <= 0 || f > 1 {
			f = 0.5
		}
		if frac > f {
			return 0
		}
		return 1
	default:
		return 1
	}
}

//ips:hotpath
func keep(f *Filter, feat *Feature, actionIdx int) bool {
	if f == nil {
		return true
	}
	if f.MinCount > 0 {
		idx := actionIdx
		if idx >= len(feat.Counts) {
			idx = 0
		}
		if len(feat.Counts) == 0 || feat.Counts[idx] < f.MinCount {
			return false
		}
	}
	if f.FIDs != nil && !f.FIDs[feat.FID] {
		return false
	}
	//ipslint:ignore hotpathalloc user predicates are a dynamic call by design, off the default topK shape
	if f.Predicate != nil && !f.Predicate(*feat) {
		return false
	}
	return true
}

// cmpFeatures reports whether a comes before b under the sort type; ties
// break by ascending FID for determinism. A plain function (not a closure
// factory) keeps the comparison allocation-free on the hot path.
//
//ips:hotpath
func cmpFeatures(by SortBy, actionIdx int, a, b *Feature) bool {
	switch by {
	case ByTimestamp:
		if a.LastSeen != b.LastSeen {
			return a.LastSeen > b.LastSeen
		}
		return a.FID < b.FID
	case ByFeatureID:
		return a.FID < b.FID
	case ByTotal:
		x, y := total(a), total(b)
		if x != y {
			return x > y
		}
		return a.FID < b.FID
	case ByUDAF:
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.FID < b.FID
	default: // ByAction
		x, y := count(a, actionIdx), count(b, actionIdx)
		if x != y {
			return x > y
		}
		return a.FID < b.FID
	}
}

//ips:hotpath
func count(f *Feature, i int) int64 {
	if i < len(f.Counts) {
		return f.Counts[i]
	}
	return 0
}

//ips:hotpath
func total(f *Feature) int64 {
	var t int64
	for _, c := range f.Counts {
		t += c
	}
	return t
}
