// Package sparse implements the sparse-gradient machinery of the paper:
// magnitude top-k selection over dense gradient vectors, the compact
// [values, indices] representation exchanged between workers, and the
// Top-k merge operator "⊕" of Definition 1 used by gTopKAllReduce.
//
// Conventions follow the paper: for a model with m parameters and density
// ρ, k = ρ·m gradients survive selection; everything else stays in the
// worker-local residual (error feedback), handled by package core.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gtopkssgd/internal/tensor"
)

// Vector is a sparse view of a length-Dim dense vector: Values[i] lives at
// dense position Indices[i]. Indices are unique and kept in ascending
// order by every constructor in this package (ascending order makes the
// merge in Add a linear scan and wire encodings canonical).
type Vector struct {
	Dim     int
	Indices []int32
	Values  []float32
}

// ErrDimension reports incompatible dense dimensions in a binary operation.
var ErrDimension = errors.New("sparse: dimension mismatch")

// NNZ returns the number of stored (non-zero) entries.
func (v *Vector) NNZ() int { return len(v.Indices) }

// Clone returns a deep copy.
func (v *Vector) Clone() *Vector {
	return &Vector{
		Dim:     v.Dim,
		Indices: append([]int32(nil), v.Indices...),
		Values:  append([]float32(nil), v.Values...),
	}
}

// Validate checks the structural invariants (sorted unique in-range
// indices, parallel slices) and returns a descriptive error on violation.
func (v *Vector) Validate() error {
	if len(v.Indices) != len(v.Values) {
		return fmt.Errorf("sparse: %d indices but %d values", len(v.Indices), len(v.Values))
	}
	return checkIndices(v.Indices, v.Dim)
}

// Dense scatters v into a freshly allocated dense vector.
func (v *Vector) Dense() []float32 {
	out := make([]float32, v.Dim)
	for i, idx := range v.Indices {
		out[idx] = v.Values[i]
	}
	return out
}

// ScatterAdd adds v into dst (len(dst) must equal v.Dim).
func (v *Vector) ScatterAdd(dst []float32) {
	if len(dst) != v.Dim {
		panic(fmt.Sprintf("sparse: ScatterAdd into %d-dim buffer, vector dim %d", len(dst), v.Dim))
	}
	for i, idx := range v.Indices {
		dst[idx] += v.Values[i]
	}
}

// Scale multiplies every stored value by alpha in place.
func (v *Vector) Scale(alpha float32) {
	for i := range v.Values {
		v.Values[i] *= alpha
	}
}

// FromDense collects the non-zero entries of x into a sparse vector.
func FromDense(x []float32) *Vector {
	v := &Vector{Dim: len(x)}
	for i, val := range x {
		if val != 0 {
			v.Indices = append(v.Indices, int32(i))
			v.Values = append(v.Values, val)
		}
	}
	return v
}

// Add returns the sparse sum a+b. The result's support is the union of the
// operand supports; exact zero sums are kept (their index was touched, and
// gTop-k treats "sent" and "zero" differently only via magnitude, so a
// zero sum simply never survives a subsequent TopK). Hot paths use
// AddInto, which this wraps.
func Add(a, b *Vector) (*Vector, error) {
	out := &Vector{}
	if err := AddInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// Merge implements the paper's Definition 1: the Top-k operator ⊕ over
// two sparse vectors. It returns TopK(a+b, k): the k largest-magnitude
// entries of the element-wise sum (fewer if the union support is smaller).
// Hot paths use MergeInto, which this wraps.
func Merge(a, b *Vector, k int) (*Vector, error) {
	out := &Vector{}
	if err := MergeInto(out, a, b, k); err != nil {
		return nil, err
	}
	return out, nil
}

// TopK selects the k largest-magnitude entries of the dense vector x.
// Ties at the threshold magnitude are broken by lower dense index so the
// result is deterministic across workers (essential: all replicas must
// make identical selections from identical inputs).
//
// This is exactly Algorithm 1 lines 5-7 of the paper: find the k-th
// largest |x_i| (quickselect, expected O(n)), then mask everything below
// it in one ascending scan — which also yields the indices pre-sorted.
func TopK(x []float32, k int) *Vector {
	out := &Vector{}
	TopKInto(out, x, k)
	return out
}

// TopKInto is TopK writing into a caller-owned destination, reusing its
// capacity. Selection order and tie-breaking are identical to TopK. It
// is AccumulateTopKInto with nothing to accumulate, over pooled
// scratch.
func TopKInto(dst *Vector, x []float32, k int) {
	sc := selectScratchPool.Get().(*SelectScratch)
	AccumulateTopKInto(dst, sc, x, nil, k)
	selectScratchPool.Put(sc)
}

// SelectScratch is the working memory of AccumulateTopKInto: the
// candidate gather and, for k small against n, the block-max summary
// (n/16 words) and its histogram over the summary's top 16 bits, whose
// first bit is always clear (2^15 counters, 128 KiB). The zero value is
// ready to use and keeps its capacity between calls, so a steady-state
// caller allocates nothing. It is not safe for concurrent use.
type SelectScratch struct {
	cand     Vector
	blockMax []uint32
	hist     *[1 << 15]int32
}

// selectScratchPool recycles TopKInto's scratch.
var selectScratchPool = sync.Pool{New: func() any { return new(SelectScratch) }}

// AccumulateTopKInto adds grad into acc element by element (acc[i] +=
// grad[i], exactly tensor.AddInto; grad nil adds nothing) and writes the
// k largest-magnitude entries of the updated acc into dst, exactly as
// TopKInto(dst, acc, k) would: same entries, same order, same tie rule,
// same bits. sc is caller-owned scratch that keeps its capacity between
// calls, so a steady-state caller allocates nothing. This is the
// error-feedback step of Algorithms 1/2/4 (accumulate, then select) as
// one kernel.
//
// The fast kernels substitute two exact selection algorithms for the
// reference, chosen by k/n. For k <= n/40 (blockSummaryMaxDensity) they
// read acc once: the add is fused with a block-max summary (the largest
// magnitude of each 16 entries), a 16-bit histogram of the summary
// bounds the k-th largest magnitude from below, and only the blocks
// whose max reaches that bound are read again to gather candidates. For
// larger k they read acc twice: the add is fused with an 11-bit
// magnitude histogram, and one gather pass copies the entries at or
// above the bin holding the k-th largest. Either way the candidates are
// every entry that can win, in ascending index order; the exact
// threshold is found on them alone and the winners are emitted from
// them. Pure mode, inputs holding a NaN and inputs below radixMinN take
// the reference route: the add, then the quickselect threshold and the
// emit scan over acc.
func AccumulateTopKInto(dst *Vector, sc *SelectScratch, acc, grad []float32, k int) {
	n := len(acc)
	if grad != nil && len(grad) != n {
		panic(fmt.Sprintf("sparse: AccumulateTopKInto over %d-element residual with %d-element gradient", n, len(grad)))
	}
	dst.Dim = n
	if k <= 0 || k >= n {
		addInto(acc, grad)
		o := 0
		if k >= n {
			// All non-zero entries survive (FromDense semantics).
			ensureVec(dst, n)
			for i, v := range acc {
				if v != 0 {
					dst.Indices[o] = int32(i)
					dst.Values[o] = v
					o++
				}
			}
		}
		dst.Indices = dst.Indices[:o]
		dst.Values = dst.Values[:o]
		return
	}
	// Emit from the candidates after the fused kernel, from acc
	// otherwise. The remaining tie quota goes to the lowest-index
	// entries at the threshold.
	srcIdx, src := []int32(nil), acc
	var thr float32
	var strict int
	ok := false
	if n >= radixMinN && fastEnabled.Load() {
		// The kernel applies the add even when it reports a NaN, whose
		// bit pattern defeats the histogram.
		thr, strict, ok = accumulateSelectFast(sc, acc, grad, k)
		grad = nil
		if ok {
			srcIdx, src = sc.cand.Indices, sc.cand.Values
		}
	}
	if !ok {
		addInto(acc, grad)
		thr, strict = thresholdOf(acc, k)
	}
	// One slot of emit slack: the branchless fast scan stores rejected
	// entries into the slot one past the last winner.
	ensureVec(dst, k+1)
	o := emitTopK(dst.Indices, dst.Values, srcIdx, src, thr, k-strict, k)
	dst.Indices = dst.Indices[:o]
	dst.Values = dst.Values[:o]
}

// addInto is tensor.AddInto(acc, grad); grad nil adds nothing. Every
// add outside the fast kernels' blocks goes through it, so the residual
// keeps the reference's bits, NaN payloads included.
func addInto(acc, grad []float32) {
	if grad != nil {
		tensor.AddInto(acc, grad)
	}
}

// TopKSparse selects the k largest-magnitude stored entries of v. Hot
// paths use TopKSparseInto, which this wraps.
func TopKSparse(v *Vector, k int) *Vector {
	out := &Vector{}
	TopKSparseInto(out, v, k)
	return out
}

// Scratch pool for the selection hot path. Every training iteration of
// every worker runs at least one top-k selection over the full residual,
// so the magnitude scratch vectors are recycled instead of reallocated
// per call. The pool is safe for the concurrent per-bucket selections of
// the bucketed aggregation pipeline.
var magScratch = sync.Pool{New: func() any { return new([]float32) }}

func getMagScratch(n int) *[]float32 {
	sp := magScratch.Get().(*[]float32)
	if cap(*sp) < n {
		*sp = make([]float32, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// Threshold returns the k-th largest absolute value of x (the selection
// threshold "thr" of Algorithm 1 line 5). k must be in [1, len(x)].
// Expected O(n) quickselect over a pooled scratch buffer; x is not
// modified.
func Threshold(x []float32, k int) float32 {
	if k < 1 || k > len(x) {
		panic(fmt.Sprintf("sparse: Threshold k=%d with %d elements", k, len(x)))
	}
	thr, _ := thresholdOf(x, k)
	return thr
}

// selectKthLargest returns the k-th largest element of mags, reordering
// mags freely (callers pass pooled scratch). Expected O(n) quickselect
// over plain float32s — the hottest loop in the aggregation path, so it
// swaps values directly instead of going through position indirection.
func selectKthLargest(mags []float32, k int) float32 {
	lo, hi, want := 0, len(mags)-1, k-1
	state := uint64(0x9e3779b97f4a7c15)
	for lo < hi {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		p := lo + int(state%uint64(hi-lo+1))
		pivot := mags[p]
		mags[p], mags[hi] = mags[hi], mags[p]
		store := partitionGreater(mags, lo, hi, pivot)
		mags[store], mags[hi] = mags[hi], mags[store]
		switch {
		case store == want:
			return mags[store]
		case store < want:
			lo = store + 1
		default:
			hi = store - 1
		}
	}
	return mags[lo]
}

// abs32 is mask-abs: clearing the sign bit, branch-free, is |v| for
// every float32 including -0 and NaN payloads — and exactly what the
// word-batched absInto kernel does four lanes at a time, so scalar and
// batched magnitude computations agree bit for bit.
func abs32(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) &^ (1 << 31))
}
