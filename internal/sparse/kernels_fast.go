//go:build !purego && (amd64 || arm64)

package sparse

import (
	"math"
	"sync"
	"unsafe"
)

// Fast kernel variants for little-endian 64-bit targets: sign-mask word
// ops instead of float compares-and-negates, 4-wide unrolling, subslice
// aliasing for bounds-check elimination, and bulk memcpy for wire word
// moves (both supported GOARCHes are little-endian, so the in-memory
// layout of []int32/[]float32 IS the wire layout). Every variant performs
// exactly the same comparison/store sequence as its pure counterpart in
// kernels_pure.go, which keeps results bit-identical — including the
// quickselect permutations that feed subsequent pivot draws, and
// behaviour on NaN inputs. Build with -tags purego to compile these out.

const fastKernelsAvailable = true

const signMask32 = uint32(1) << 31

func absIntoFast(dst, src []float32) {
	n := len(src)
	if n == 0 {
		return
	}
	// Clearing the sign bit is abs32 exactly (mask-abs, NaN included),
	// and as uint32 traffic it vectorises into plain word ANDs.
	s := unsafe.Slice((*uint32)(unsafe.Pointer(&src[0])), n)
	d := unsafe.Slice((*uint32)(unsafe.Pointer(&dst[0])), n)[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d[i] = s[i] &^ signMask32
		d[i+1] = s[i+1] &^ signMask32
		d[i+2] = s[i+2] &^ signMask32
		d[i+3] = s[i+3] &^ signMask32
	}
	for ; i < n; i++ {
		d[i] = s[i] &^ signMask32
	}
}

func partitionGreaterFast(mags []float32, lo, hi int, pivot float32) int {
	// Subslice once so the range loop carries no per-iteration bounds
	// checks on the read side; the swap sequence (including the
	// i==store no-op case) matches partitionGreaterPure move for move.
	s := mags[lo:hi]
	store := 0
	for i, v := range s {
		if v > pivot {
			s[i] = s[store]
			s[store] = v
			store++
		}
	}
	return lo + store
}

func countGreaterFast(mags []float32, thr float32) int {
	n := 0
	i := 0
	for ; i+4 <= len(mags); i += 4 {
		// Four independent compares per iteration; each branch is its
		// own increment so the adds retire without a dependency chain.
		if mags[i] > thr {
			n++
		}
		if mags[i+1] > thr {
			n++
		}
		if mags[i+2] > thr {
			n++
		}
		if mags[i+3] > thr {
			n++
		}
	}
	for ; i < len(mags); i++ {
		if mags[i] > thr {
			n++
		}
	}
	return n
}

func mergeAddFast(dstIdx []int32, dstVal []float32, a, b *Vector) int {
	// Hoist the four stream headers into locals so the merge loop reads
	// them from registers instead of re-loading through the Vector
	// pointers every comparison. (A conditional-move formulation was
	// tried and measured ~2x slower both hot and in-round: the compiler
	// keeps branches for the multi-result select, and CMOV forces both
	// streams' loads every iteration.)
	ai, av := a.Indices, a.Values
	bi, bv := b.Indices, b.Values
	i, j, o := 0, 0, 0
	for i < len(ai) && j < len(bi) {
		x, y := ai[i], bi[j]
		switch {
		case x < y:
			dstIdx[o] = x
			dstVal[o] = av[i]
			i++
		case x > y:
			dstIdx[o] = y
			dstVal[o] = bv[j]
			j++
		default:
			dstIdx[o] = x
			dstVal[o] = av[i] + bv[j]
			i++
			j++
		}
		o++
	}
	o += copy(dstIdx[o:], ai[i:])
	copy(dstVal[o-(len(ai)-i):], av[i:])
	o += copy(dstIdx[o:], bi[j:])
	copy(dstVal[o-(len(bi)-j):], bv[j:])
	return o
}

// u32Scratch pools the survivor buffers of the radix threshold descent.
var u32Scratch = sync.Pool{New: func() any { return new([]uint32) }}

// infBits is the bit pattern of +Inf; sign-free magnitudes above it are
// NaN payloads, whose float ordering disagrees with the bit ordering.
const infBits = uint32(0x7f800000)

// radixSelectKthLargest finds the k-th largest magnitude — and the count
// of elements strictly above it — by byte-wise radix descent over the
// float32 bit patterns. The descent clears the sign bit as it converts
// each element to bits (mask-abs, exactly abs32), so it accepts the raw
// signed values directly — callers skip the magnitude-scratch fill a
// comparison-based selector would need. Sign-free IEEE-754 bit patterns
// order exactly like the floats themselves: a 256-bin histogram walks
// from the top byte down, narrowing to the bin holding the k-th largest
// at each of the four byte levels. Every pass is a sequential scan with
// no data-dependent branching, against quickselect's pivot-driven swap
// cascade — ~5x faster on the merge path's 2k-element selections and
// deterministic besides.
//
// ok=false when vals contains a NaN or is below radixMinN; the caller
// falls back to the quickselect reference, which pins NaN behaviour for
// both kernel modes (and is simply faster at small n).
func radixSelectKthLargest(vals []float32, k int) (thr float32, strict int, ok bool) {
	n := len(vals)
	if n < radixMinN {
		return 0, 0, false
	}
	// Four interleaved histograms: gradient magnitudes cluster heavily in
	// a handful of exponent bytes, so a single histogram serialises on
	// store-to-load forwarding through the hot bin. Striping consecutive
	// elements across four counter banks keeps the increments independent;
	// the bin walk just sums the four banks per bin.
	var h [4][256]int32
	nan := false
	i := 0
	for ; i+4 <= n; i += 4 {
		u0 := math.Float32bits(vals[i]) &^ signMask32
		u1 := math.Float32bits(vals[i+1]) &^ signMask32
		u2 := math.Float32bits(vals[i+2]) &^ signMask32
		u3 := math.Float32bits(vals[i+3]) &^ signMask32
		if u0 > infBits || u1 > infBits || u2 > infBits || u3 > infBits {
			nan = true
		}
		h[0][u0>>24]++
		h[1][u1>>24]++
		h[2][u2>>24]++
		h[3][u3>>24]++
	}
	for ; i < n; i++ {
		u := math.Float32bits(vals[i]) &^ signMask32
		if u > infBits {
			nan = true
		}
		h[0][u>>24]++
	}
	if nan {
		return 0, 0, false
	}
	// want is the 1-based rank (from the top) still sought inside the
	// current prefix group; each level subtracts the sizes of the bins
	// strictly above the chosen one, i.e. the strictly-greater elements.
	want := k
	b := 255
	for {
		c := int(h[0][b] + h[1][b] + h[2][b] + h[3][b])
		if want <= c {
			break
		}
		want -= c
		b--
	}
	prefix := uint32(b) << 24
	sp := u32Scratch.Get().(*[]uint32)
	cur := *sp
	if cap(cur) < n {
		cur = make([]uint32, n)
	}
	cur = cur[:n]
	// Branchless compaction of the survivors: the keep/drop decision is
	// near 50/50 on clustered data, so a conditional append would be
	// mispredict-bound. Store unconditionally, advance conditionally.
	o := 0
	for _, v := range vals {
		u := math.Float32bits(v) &^ signMask32
		cur[o] = u
		if u>>24 == uint32(b) {
			o++
		}
	}
	cur = cur[:o]
	for shift := 16; ; shift -= 8 {
		h = [4][256]int32{}
		i = 0
		for ; i+4 <= len(cur); i += 4 {
			h[0][(cur[i]>>shift)&0xff]++
			h[1][(cur[i+1]>>shift)&0xff]++
			h[2][(cur[i+2]>>shift)&0xff]++
			h[3][(cur[i+3]>>shift)&0xff]++
		}
		for ; i < len(cur); i++ {
			h[0][(cur[i]>>shift)&0xff]++
		}
		bb := 255
		for {
			c := int(h[0][bb] + h[1][bb] + h[2][bb] + h[3][bb])
			if want <= c {
				break
			}
			want -= c
			bb--
		}
		prefix |= uint32(bb) << shift
		if shift == 0 {
			break
		}
		o = 0
		for _, u := range cur {
			cur[o] = u
			if (u>>shift)&0xff == uint32(bb) {
				o++
			}
		}
		cur = cur[:o]
	}
	*sp = cur
	u32Scratch.Put(sp)
	return math.Float32frombits(prefix), k - want, true
}

// magBin is the first-level histogram bin of a sign-free magnitude: its
// top 11 bits, i.e. the 8 exponent bits and the 3 leading mantissa
// bits. One bin spans a factor of 1.125 in magnitude, so the bin that
// holds the k-th largest is thin and the candidate gather copies little
// more than the k winners. The mask proves the index in range.
func magBin(u uint32) uint32 { return (u >> 20) & 0x7ff }

// accumulateSelectFast is AccumulateTopKInto's fast kernel. It routes k
// small against the block count (blockSummaryMaxDensity) to the
// block-max summary kernel and the rest to the two-pass histogram
// kernel; both leave their candidates in sc.cand.
func accumulateSelectFast(sc *SelectScratch, acc, grad []float32, k int) (thr float32, strict int, ok bool) {
	if k*blockSummaryMaxDensity <= len(acc) {
		return accumulateSelectBlocks(sc, acc, grad, k)
	}
	return accumulateSelectTwoPass(&sc.cand, acc, grad, k)
}

// accumulateSelectBlocks is the block-max summary kernel: one pass over
// acc adds grad and writes, per blockLen-entry block, the largest
// sign-free magnitude bits into sc.blockMax. Only those n/blockLen
// maxima are histogrammed, by their top 16 bits (8 exponent and 8
// mantissa bits), and lo is the lower edge of the bin holding the k-th
// largest block max. At least k blocks have a max at or above lo, so at
// least k entries do, and the k-th largest entry reaches lo: every entry
// the emit can select sits in a block whose max reaches lo. Only those
// blocks (about k of them) are read again, and their entries at or
// above lo are gathered into sc.cand in ascending index order. The
// exact threshold is then found on the candidates alone.
//
// A NaN shows in its block's max, because its bit pattern exceeds
// +Inf's; ok=false then, with the add applied (addRestAfterNaN), as in
// the two-pass kernel.
func accumulateSelectBlocks(sc *SelectScratch, acc, grad []float32, k int) (thr float32, strict int, ok bool) {
	n := len(acc)
	full := n / blockLen
	nb := (n + blockLen - 1) / blockLen
	if cap(sc.blockMax) < nb {
		sc.blockMax = make([]uint32, nb)
	}
	bm := sc.blockMax[:nb]
	// top and bottom bound the block maxima, so the histogram clears
	// and walks only the bins they span.
	top, bottom := uint32(0), ^uint32(0)
	var d *[blockLen]float32
	for b := 0; b < full; b++ {
		a := (*[blockLen]float32)(acc[b*blockLen:])
		if grad != nil {
			d = (*[blockLen]float32)(grad[b*blockLen:])
		}
		old := *a
		m := addBlockMax(a, d)
		if m > infBits {
			if grad == nil {
				return 0, 0, false
			}
			*a = old
			return addRestAfterNaN(acc[b*blockLen:], grad[b*blockLen:])
		}
		bm[b] = m
		top, bottom = max(top, m), min(bottom, m)
	}
	if full < nb {
		// The partial tail block.
		tail := acc[full*blockLen:]
		if grad != nil {
			addInto(tail, grad[full*blockLen:])
		}
		m := uint32(0)
		for _, v := range tail {
			m = max(m, math.Float32bits(v)&^signMask32)
		}
		if m > infBits {
			return 0, 0, false
		}
		bm[full] = m
		top, bottom = max(top, m), min(bottom, m)
	}
	if sc.hist == nil {
		sc.hist = new([1 << 15]int32)
	}
	h := sc.hist
	clear(h[bottom>>16 : top>>16+1])
	for _, m := range bm {
		// Sign-free bits have their top bit clear, so the mask only
		// proves the index in range.
		h[(m>>16)&(1<<15-1)]++
	}
	// want is the 1-based rank (from the top) of the k-th largest block
	// max inside the chosen bin; k <= nb, so the walk stops in range.
	want := k
	b := top >> 16
	for {
		c := int(h[b])
		if want <= c {
			break
		}
		want -= c
		b--
	}
	// blocks counts the block maxima at or above lo. A block max reaches
	// lo exactly when its top 16 bits reach the bin.
	blocks := k - want + int(h[b])
	lo := b << 16
	// Each block at or above lo gives at most blockLen candidates.
	if need := blocks * blockLen; cap(sc.cand.Indices) < need || cap(sc.cand.Values) < need {
		ensureVec(&sc.cand, need+need/4)
	}
	ci, cv := sc.cand.Indices[:cap(sc.cand.Indices)], sc.cand.Values[:cap(sc.cand.Values)]
	o := 0
	for bi, m := range bm {
		if m < lo {
			continue
		}
		start := bi * blockLen
		// Store every entry of the block, advance past those at or
		// above lo: about one entry per block passes, so a branch
		// would mispredict once per block.
		for j, v := range acc[start:min(start+blockLen, n)] {
			ci[o] = int32(start + j)
			cv[o] = v
			if math.Float32bits(v)&^signMask32 >= lo {
				o++
			}
		}
	}
	sc.cand.Dim = n
	sc.cand.Indices, sc.cand.Values = ci[:o], cv[:o]
	thr, strict = thresholdOf(sc.cand.Values, k)
	return thr, strict, true
}

// addBlockMax adds d into a (d nil adds nothing) and returns the largest
// sign-free magnitude bits of the sums. Written as a tree in a function
// of its own, the maxima lower to conditional moves. Inlined into the
// block loop, or written as a running max, they compile to branches (the
// compiler declines a conditional move where the join carries more than
// one value), which mispredict on gradient data: the summary pass
// measured 3x slower that way. A call per 64-byte block costs little.
//
//go:noinline
func addBlockMax(a, d *[blockLen]float32) uint32 {
	if d != nil {
		add4((*[4]float32)(a[0:4]), (*[4]float32)(d[0:4]))
		add4((*[4]float32)(a[4:8]), (*[4]float32)(d[4:8]))
		add4((*[4]float32)(a[8:12]), (*[4]float32)(d[8:12]))
		add4((*[4]float32)(a[12:16]), (*[4]float32)(d[12:16]))
	}
	// Read the sums back as bit patterns: they come from the store
	// buffer, and no float register moves to an integer one.
	u := (*[blockLen]uint32)(unsafe.Pointer(a))
	return max(max4((*[4]uint32)(u[0:4])), max4((*[4]uint32)(u[4:8])),
		max4((*[4]uint32)(u[8:12])), max4((*[4]uint32)(u[12:16])))
}

// addRestAfterNaN is the fast kernels' exit on a NaN sum: acc and grad
// start at the first entry not yet added, and addInto adds the rest.
// Where both operands are NaN, Go leaves the sum's payload to the
// compiled code, and the kernels' unrolled add and tensor.AddInto's
// loop keep different operands' payloads in one build or another;
// addInto is the reference's own compiled loop. Before the first NaN,
// addition commutes and the kernels' sums are the reference's bits.
func addRestAfterNaN(acc, grad []float32) (float32, int, bool) {
	addInto(acc, grad)
	return 0, 0, false
}

// add4 is a += d over four entries, unrolled.
func add4(a, d *[4]float32) {
	a[0] += d[0]
	a[1] += d[1]
	a[2] += d[2]
	a[3] += d[3]
}

// max4 returns the largest sign-free magnitude bits of four entries.
func max4(u *[4]uint32) uint32 {
	return max(max(u[0]&^signMask32, u[1]&^signMask32), max(u[2]&^signMask32, u[3]&^signMask32))
}

// accumulateSelectTwoPass is the histogram kernel for k above the
// block-summary gate. Pass 1 adds grad into acc (when grad is non-nil)
// and histograms the sums' top 11 magnitude bits, striped over two
// counter banks so consecutive increments stay independent. With a
// gradient each pair of sums is checked for a NaN before it is stored
// (addRestAfterNaN); without one a branch-free flag collects NaNs. The
// bin walk then finds the bin holding the k-th largest, and pass 2
// gathers every entry at or above that bin into cand in ascending index
// order. The exact threshold is refined on cand's entries of that bin,
// on the remaining 20 bits in two 10-bit levels. Every entry whose
// magnitude reaches the threshold is in cand, in index order, so the
// emit scan over cand selects exactly what a scan over acc would.
//
// ok=false means acc holds a NaN, whose bit pattern does not order like
// its value; the add has still been applied and the caller selects
// with the quickselect reference.
func accumulateSelectTwoPass(cand *Vector, acc, grad []float32, k int) (thr float32, strict int, ok bool) {
	n := len(acc)
	var h [2][2048]int32
	i := 0
	if grad != nil {
		g := grad[:n]
		for ; i+2 <= n; i += 2 {
			v0, v1 := acc[i]+g[i], acc[i+1]+g[i+1]
			u0 := math.Float32bits(v0) &^ signMask32
			u1 := math.Float32bits(v1) &^ signMask32
			if max(u0, u1) > infBits {
				// A NaN sum, checked before the pair is stored.
				return addRestAfterNaN(acc[i:], g[i:])
			}
			acc[i], acc[i+1] = v0, v1
			h[0][magBin(u0)]++
			h[1][magBin(u1)]++
		}
		addInto(acc[i:], g[i:])
	}
	// nan collects infBits-u over all magnitudes u: the subtraction wraps
	// and sets the top bit exactly when u is a NaN pattern (u > infBits).
	var nan uint32
	for ; i+2 <= n; i += 2 {
		u0 := math.Float32bits(acc[i]) &^ signMask32
		u1 := math.Float32bits(acc[i+1]) &^ signMask32
		nan |= (infBits - u0) | (infBits - u1)
		h[0][magBin(u0)]++
		h[1][magBin(u1)]++
	}
	if i < n {
		u := math.Float32bits(acc[i]) &^ signMask32
		nan |= infBits - u
		h[0][magBin(u)]++
	}
	if nan&signMask32 != 0 {
		return 0, 0, false
	}
	// want is the 1-based rank (from the top) still sought inside the
	// chosen bin; the bins above it hold the k-want strict winners.
	want := k
	b := 2047
	for {
		c := int(h[0][b] + h[1][b])
		if want <= c {
			break
		}
		want -= c
		b--
	}
	total := k - want + int(h[0][b]+h[1][b])
	if cap(cand.Indices) < total || cap(cand.Values) < total {
		// The candidate count drifts from step to step; a quarter of
		// headroom keeps a long-lived cand from regrowing on each new
		// high-water mark.
		ensureVec(cand, total+total/4)
	}
	ensureVec(cand, total)
	cand.Dim = n
	ci, cv := cand.Indices, cand.Values
	// Candidates are a small share of acc (about the density rho), so the
	// branch predicts well and the pass is a plain sequential read.
	lo := uint32(b) << 20
	o := 0
	for j, v := range acc {
		if math.Float32bits(v)&^signMask32 >= lo {
			ci[o] = int32(j)
			cv[o] = v
			o++
		}
	}
	bits, want := refineKth(cv, lo, want)
	return math.Float32frombits(bits), k - want, true
}

// refineKth narrows the k-th largest magnitude inside one first-level
// bin (the entries of vals whose sign-free top 11 bits equal prefix's)
// by two 10-bit histogram levels over the remaining 20 bits, and returns
// its full bit pattern. want enters as the 1-based rank sought inside
// the bin and leaves as the rank inside the final value's ties, so the
// caller's k-want is the strict-winner count.
func refineKth(vals []float32, prefix uint32, want int) (uint32, int) {
	var h [1024]int32
	for shift := 10; ; shift -= 10 {
		h = [1024]int32{}
		top := prefix >> (shift + 10)
		for _, v := range vals {
			u := math.Float32bits(v) &^ signMask32
			if u>>(shift+10) == top {
				h[(u>>shift)&0x3ff]++
			}
		}
		b := 1023
		for {
			c := int(h[b])
			if want <= c {
				break
			}
			want -= c
			b--
		}
		prefix |= uint32(b) << shift
		if shift == 0 {
			return prefix, want
		}
	}
}

// emitTopKFast is the branch-light winner scan: every entry is stored at
// the current output slot unconditionally and the slot advances only for
// selected entries, so the 50/50 select/reject pattern of a k-of-2k
// merge costs conditional moves instead of mispredicted branches. dst
// slices need len >= k+1 — rejected entries transiently overwrite the
// slot one past the last winner. Selection predicate, order, and the
// tie-quota bookkeeping match emitTopKPure entry for entry.
func emitTopKFast(dstIdx []int32, dstVal []float32, srcIdx []int32, srcVal []float32, thr float32, tieQuota, k int) int {
	// The unconditional-store trade only wins where branches actually
	// mispredict: scans long enough to defeat the predictor's history and
	// dense enough in winners (the k-of-2k merge shape) that the
	// select/reject pattern is data-random. Short scans and needle-in-a-
	// haystack selections (k << n, branches almost always not-taken)
	// predict nearly perfectly, so the doubled store traffic is pure loss
	// there — route them to the branchy reference scan.
	if n := len(srcVal); n < radixMinN || n > 8*k {
		return emitTopKPure(dstIdx, dstVal, srcIdx, srcVal, thr, tieQuota, k)
	}
	// The select/tie predicate is computed with materialized flag ints
	// (each `if cond { f = 1 }` on a fresh zero compiles to a setcc, not a
	// jump) and combined with masks: short-circuit &&/|| would reintroduce
	// exactly the data-random branches the unconditional stores exist to
	// avoid. NaN sources compare false on both > and ==, so they are never
	// selected — matching the pure scan.
	o, tq := 0, tieQuota
	if srcIdx != nil {
		idx := srcIdx[:len(srcVal)]
		for i, v := range srcVal {
			m := abs32(v)
			g, e, q, c := 0, 0, 0, 0
			if m > thr {
				g = 1
			}
			if m == thr {
				e = 1
			}
			if tq > 0 {
				q = 1
			}
			if o < k {
				c = 1
			}
			t := e & q
			s := (g | t) & c
			dstIdx[o] = idx[i]
			dstVal[o] = v
			o += s
			tq -= t & s
		}
		return o
	}
	for i, v := range srcVal {
		m := abs32(v)
		g, e, q, c := 0, 0, 0, 0
		if m > thr {
			g = 1
		}
		if m == thr {
			e = 1
		}
		if tq > 0 {
			q = 1
		}
		if o < k {
			c = 1
		}
		t := e & q
		s := (g | t) & c
		dstIdx[o] = int32(i)
		dstVal[o] = v
		o += s
		tq -= t & s
	}
	return o
}

func scatterAddFast(dense []float32, mark []bool, touched []int32, indices []int32, values []float32) []int32 {
	vals := values[:len(indices)]
	for i, idx := range indices {
		// uint cast folds the compiler's signed range check into the
		// single unsigned bounds check it must keep anyway.
		u := uint(uint32(idx))
		if !mark[u] {
			mark[u] = true
			touched = append(touched, idx)
		}
		dense[u] += vals[i]
	}
	return touched
}

func putWordsFast(buf []byte, indices []int32, values []float32) {
	// Little-endian targets only: []int32/[]float32 backing memory is
	// already the wire byte layout, so the two sections are two memcpys.
	ni := 4 * len(indices)
	if len(indices) > 0 {
		copy(buf[:ni], unsafe.Slice((*byte)(unsafe.Pointer(&indices[0])), ni))
	}
	if len(values) > 0 {
		copy(buf[ni:], unsafe.Slice((*byte)(unsafe.Pointer(&values[0])), 4*len(values)))
	}
}

func checkIndicesFast(indices []int32, dim int) error {
	n := len(indices)
	if n == 0 {
		return nil
	}
	// Strict ascent plus in-range endpoints implies every element is in
	// range, so the well-formed case needs one compare per element. Any
	// violation falls back to the pure scan, which pinpoints the first
	// offending position with the exact same diagnostic text.
	if indices[0] >= 0 && int(indices[n-1]) < dim {
		prev := indices[0]
		ok := true
		for _, idx := range indices[1:] {
			if idx <= prev {
				ok = false
				break
			}
			prev = idx
		}
		if ok {
			return nil
		}
	}
	return checkIndicesPure(indices, dim)
}
