// Package hist implements allocation-free, fixed-size log-bucketed
// latency histograms for the simulator's distributional telemetry.
// Where internal/sim's Account answers *how much* virtual time each
// cause consumed, a histogram answers *how it was distributed*: the
// p50/p99/p99.9 tail of fault latency, not just its sum — the view
// ROADMAP item 4 (tail latency per policy) and item 5 (cost-feedback
// policies) both need.
//
// The bucket layout is log-linear (HdrHistogram-style): values below
// SubCount land in exact unit buckets; above that, each power-of-two
// octave splits into SubCount sub-buckets, bounding the relative
// quantile error at 1/SubCount (12.5%). The layout covers every
// non-negative int64, so no value is ever dropped, and a histogram
// additionally carries the *exact* count and sum of recorded values —
// which is what lets the repository's conservation checks extend to
// histograms: per cause, Sum() must equal the sim.Account total and
// Count() the number of charges, exactly.
//
// Recording is pure bookkeeping on the recording thread (array
// indexing, no allocation, no clock access), so enabling it cannot
// change dispatch order or any simulation result — the same guarantee
// the Account and span layers make, enforced by the same determinism
// tests. The package deliberately depends on nothing (values are plain
// int64 nanoseconds), so internal/sim can feed it from the charge path
// without an import cycle.
package hist

import "math/bits"

const (
	// subBits sets the sub-bucket resolution: 2^subBits sub-buckets per
	// octave, i.e. a 1/2^subBits (12.5%) relative quantile error bound.
	subBits = 3

	// SubCount is the number of sub-buckets per octave; values below it
	// get exact unit buckets.
	SubCount = 1 << subBits

	// octaves is the number of power-of-two ranges above the exact
	// buckets needed to cover every positive int64 (bit lengths
	// subBits+1 .. 63).
	octaves = 64 - subBits - 1

	// NumBuckets is the fixed bucket count: the exact unit buckets plus
	// SubCount sub-buckets per octave. Every non-negative int64 maps to
	// exactly one bucket, so recording never drops or clips a value.
	NumBuckets = SubCount + octaves*SubCount
)

// H is one histogram: fixed-size bucket counts plus exact count, sum
// and max of everything recorded. The zero value is an empty histogram
// ready for use. H is a plain value (no pointers), so slices of H reset
// to pristine state by zeroing — the property the engine's pooled
// telemetry storage relies on.
type H struct {
	counts [NumBuckets]int64
	count  int64
	sum    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket: exact unit
// buckets below SubCount, then sub-bucketed octaves. For v >= SubCount
// the index is shift*SubCount + (v >> shift) with shift chosen so the
// mantissa v>>shift lies in [SubCount, 2*SubCount) — contiguous with
// the unit buckets at shift 0.
func bucketIndex(v int64) int {
	if v < SubCount {
		return int(v)
	}
	shift := uint(bits.Len64(uint64(v))) - subBits - 1
	return int(shift)*SubCount + int(v>>shift)
}

// BucketBounds returns bucket i's inclusive value range [lo, hi].
func BucketBounds(i int) (lo, hi int64) {
	if i < SubCount {
		return int64(i), int64(i)
	}
	shift := uint(i/SubCount) - 1
	lo = int64(i%SubCount+SubCount) << shift
	return lo, lo + (int64(1) << shift) - 1
}

// Record adds one value. Negative values clamp to zero (durations are
// never negative; the clamp keeps a misuse from corrupting the layout).
// Record is pure array arithmetic: zero allocations, no branches on
// external state, safe on the engine's charge path.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the exact number of recorded values.
func (h *H) Count() int64 { return h.count }

// Sum returns the exact sum of recorded values (after clamping). For a
// charge-path histogram this reconciles exactly with the corresponding
// sim.Account entry — the conservation invariant.
func (h *H) Sum() int64 { return h.sum }

// Max returns the exact maximum recorded value (0 when empty).
func (h *H) Max() int64 { return h.max }

// Empty reports whether nothing has been recorded.
func (h *H) Empty() bool { return h.count == 0 }

// BucketTotal re-derives the count by summing every bucket — the
// redundant tally conservation checks compare against Count().
func (h *H) BucketTotal() int64 {
	var n int64
	for _, c := range h.counts {
		n += c
	}
	return n
}

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1) of
// the recorded values: the inclusive upper bound of the bucket holding
// the ceil(q*count)-th smallest value, clamped to the exact maximum.
// The estimate is deterministic, monotone in q, and within the bucket
// layout's 12.5% relative error. Returns 0 for an empty histogram.
func (h *H) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(q * float64(h.count))
	if float64(rank) < q*float64(h.count) {
		rank++ // ceil
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			_, hi := BucketBounds(i)
			if hi > h.max {
				hi = h.max
			}
			return hi
		}
	}
	return h.max
}

// Merge adds o's contents into h. Count, sum and bucket tallies add
// exactly, so a merge of per-node histograms conserves everything the
// parts did.
func (h *H) Merge(o *H) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Reset returns the histogram to its empty state.
func (h *H) Reset() {
	// An empty histogram is already all-zero (Record bumps count on
	// every call), so sweeping a large pool of mostly-unused histograms
	// costs only the guard, not a bucket-array clear each.
	if h.count == 0 {
		return
	}
	*h = H{}
}

// Each calls fn for every non-empty bucket in ascending value order
// with the bucket's inclusive bounds and count. It allocates nothing;
// exporters build their sparse representations on top of it.
func (h *H) Each(fn func(lo, hi, count int64)) {
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		fn(lo, hi, c)
	}
}
