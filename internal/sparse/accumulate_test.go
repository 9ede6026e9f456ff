package sparse

import (
	"fmt"
	"math"
	"testing"

	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/tensor"
)

// accumulateReference is the unfused oracle for AccumulateTopKInto:
// tensor.AddInto, then the dense selection as it ran before the fused
// kernel existed. Below the radix size gate that is the pure-mode
// TopKInto. From the gate on it is the byte-wise radix threshold
// (radixSelectKthLargest) and the pure emit scan, because pure-mode
// quickselect degrades to quadratic time on the heavy-tie inputs the
// suite feeds it; inputs with a NaN, and builds without the fast
// kernels, use the pure TopKInto there too.
func accumulateReference(t *testing.T, acc, grad []float32, k int) *Vector {
	t.Helper()
	if grad != nil {
		tensor.AddInto(acc, grad)
	}
	out := &Vector{Dim: len(acc)}
	if n := len(acc); n >= radixMinN && k > 0 && k < n {
		if thr, strict, ok := radixSelectKthLargest(acc, k); ok {
			out.Indices, out.Values = make([]int32, k), make([]float32, k)
			o := emitTopKPure(out.Indices, out.Values, nil, acc, thr, k-strict, k)
			out.Indices, out.Values = out.Indices[:o], out.Values[:o]
			return out
		}
	}
	withKernels(t, KernelsPure, func() { TopKInto(out, acc, k) })
	return out
}

// pureCheckMaxN is the largest input checkAccumulate runs in pure mode:
// past it pure-mode quickselect turns quadratic on heavy ties, and pure
// mode runs the same add and selection code at every size.
const pureCheckMaxN = 1 << 12

// checkAccumulate runs AccumulateTopKInto on a copy of acc and fails
// unless both the selection and the updated residual match the
// reference bit for bit. It runs under the fast kernels where the build
// has them, and under the pure kernels up to pureCheckMaxN. Under the
// fast kernels it also fails unless k below the block-summary gate ran
// the summary kernel, so a check meant for that kernel cannot pass on
// the other one.
func checkAccumulate(t *testing.T, label string, acc, grad []float32, k int) {
	t.Helper()
	var modes []string
	if len(acc) <= pureCheckMaxN {
		modes = append(modes, KernelsPure)
	}
	if FastKernelsAvailable() {
		modes = append(modes, KernelsFast)
	}
	if len(modes) == 0 {
		return
	}
	wantAcc := append([]float32(nil), acc...)
	want := accumulateReference(t, wantAcc, grad, k)
	for _, mode := range modes {
		gotAcc := append([]float32(nil), acc...)
		got, sc := &Vector{}, &SelectScratch{}
		withKernels(t, mode, func() { AccumulateTopKInto(got, sc, gotAcc, grad, k) })
		if mode == KernelsFast && (sc.blockMax != nil) != blockSummaryRuns(len(acc), k) {
			t.Fatalf("%s k=%d: block summary ran %v, want %v", label, k, sc.blockMax != nil, blockSummaryRuns(len(acc), k))
		}
		if !vectorsEqualBits(want, got) {
			t.Fatalf("%s %s k=%d: selection differs from AddInto+TopKInto (nnz %d vs %d)",
				label, mode, k, want.NNZ(), got.NNZ())
		}
		for i := range wantAcc {
			if math.Float32bits(wantAcc[i]) != math.Float32bits(gotAcc[i]) {
				t.Fatalf("%s %s k=%d: residual[%d] = %x, want %x", label, mode, k, i,
					math.Float32bits(gotAcc[i]), math.Float32bits(wantAcc[i]))
			}
		}
	}
}

// blockSummaryRuns reports whether the fast kernels run the block-max
// summary pass: from radixMinN on, for 1 <= k <= n/blockSummaryMaxDensity.
// With a NaN in the input the pass runs too; it finds the NaN and hands
// the selection to the reference.
func blockSummaryRuns(n, k int) bool {
	return n >= radixMinN && k >= 1 && k*blockSummaryMaxDensity <= n
}

// blockInputFamilies generates inputs aimed at the block-max summary:
// one spike per block over small noise; every block sharing the exact
// same max (ties at the summary's bound); blocks of only ±0 between
// Gaussian ones; sparse ±Inf (the sign fixed by position, so adding
// two members never makes Inf-Inf); and a NaN in the partial tail
// block only (n is not a multiple of blockLen there).
func blockInputFamilies(seed uint64, n int) map[string][]float32 {
	src := prng.New(seed)
	negZero := float32(math.Copysign(0, -1))
	spikes := make([]float32, n)
	ties := make([]float32, n)
	zeroBlocks := make([]float32, n)
	inf := make([]float32, n)
	tailNaN := make([]float32, n)
	for b := 0; b*blockLen < n; b++ {
		start, end := b*blockLen, min((b+1)*blockLen, n)
		spike := start + int(src.Uint64()%uint64(end-start))
		zero := b%3 == 1
		for i := start; i < end; i++ {
			g := float32(src.NormFloat64())
			spikes[i] = g * 1e-3
			ties[i] = g * 0.25
			if i == spike {
				spikes[i] = g * 100
				ties[i] = 1
				if src.Uint64()%2 == 0 {
					ties[i] = -1
				}
			}
			switch {
			case !zero:
				zeroBlocks[i] = g
			case i%2 == 0:
				zeroBlocks[i] = negZero
			}
			inf[i] = g
			if i%97 == 0 {
				inf[i] = float32(math.Inf(1 - 2*(i/97%2)))
			}
			tailNaN[i] = g
		}
	}
	if n%blockLen != 0 {
		tailNaN[n-1-int(src.Uint64()%uint64(n%blockLen))] = float32(math.NaN())
	}
	return map[string][]float32{
		"spikes": spikes, "block-ties": ties, "zero-blocks": zeroBlocks,
		"inf": inf, "tail-NaN": tailNaN,
	}
}

// TestAccumulateTopKIntoMatchesReference pins the fused kernel to the
// unfused AddInto + TopKInto on every input family, on both sides of
// the fused size gate, for k from 1 to n, at the block-summary gate and
// one either side of it, and with and without a gradient to add. Every
// size from radixMinN on leaves a partial tail block.
func TestAccumulateTopKIntoMatchesReference(t *testing.T) {
	for _, n := range []int{777, radixMinN + 5, 1<<16 + 5} {
		accs := kernelInputFamilies(uint64(n), n)
		grads := kernelInputFamilies(uint64(n)+1, n)
		if n > pureCheckMaxN {
			// The wild family's many infinities make the quickselect
			// that serves NaN inputs quadratic at this size. The NaN
			// route is checked below on a Gaussian input instead.
			delete(accs, "wild")
		}
		for name, acc := range blockInputFamilies(uint64(n)+2, n) {
			accs[name] = acc
		}
		for name, grad := range blockInputFamilies(uint64(n)+3, n) {
			grads[name] = grad
		}
		gate := n / blockSummaryMaxDensity
		for name, acc := range accs {
			for _, k := range []int{0, 1, n/1000 + 1, gate - 1, gate, gate + 1, n / 3, n - 1, n} {
				label := fmt.Sprintf("%s n=%d", name, n)
				checkAccumulate(t, label, acc, grads[name], k)
				checkAccumulate(t, label+" nil grad", acc, nil, k)
			}
		}
	}
	n := 1<<16 + 5
	fam := kernelInputFamilies(9, n)
	acc, grad := fam["normal"], fam["skew"]
	grad[n/2] = float32(math.NaN())
	checkAccumulate(t, "NaN in grad", acc, grad, n/1000+1)
	acc[7] = float32(math.NaN())
	checkAccumulate(t, "NaN in acc", acc, nil, n/1000+1)
	// A NaN in both operands at one index, in a full block and in the
	// partial tail block, on both fused kernels and in pure mode.
	n = radixMinN + 5
	fam = kernelInputFamilies(10, n)
	acc, grad = fam["normal"], fam["skew"]
	for _, i := range []int{n / 2, n - 2} {
		acc[i] = math.Float32frombits(0xffc00001)
		grad[i] = math.Float32frombits(0x7fc00002)
	}
	for _, k := range []int{2, n / 3} {
		checkAccumulate(t, "NaN in both", acc, grad, k)
	}
}

// TestAccumulateTopKIntoCarriedResidual drives the kernel through
// consecutive error-feedback steps with one reused candidate buffer:
// the selected entries are cleared and the rest carry over, so the
// candidate set shrinks and grows between calls.
func TestAccumulateTopKIntoCarriedResidual(t *testing.T) {
	if !FastKernelsAvailable() {
		t.Skip("fast kernels unavailable in this build; pure mode runs the reference code itself")
	}
	const n, k = 1<<16 + 3, 97
	fam := kernelInputFamilies(5, n)
	grads := [][]float32{fam["normal"], fam["ties"], fam["skew"], fam["zeros"]}
	ref := make([]float32, n)
	acc := make([]float32, n)
	got, sc := &Vector{}, &SelectScratch{}
	for step := 0; step < 12; step++ {
		grad := grads[step%len(grads)]
		want := accumulateReference(t, ref, grad, k)
		AccumulateTopKInto(got, sc, acc, grad, k)
		if !vectorsEqualBits(want, got) {
			t.Fatalf("step %d: selection differs from the reference", step)
		}
		for _, idx := range want.Indices {
			ref[idx] = 0
			acc[idx] = 0
		}
		for i := range ref {
			if math.Float32bits(ref[i]) != math.Float32bits(acc[i]) {
				t.Fatalf("step %d: residual[%d] diverged", step, i)
			}
		}
	}
}

// TestAccumulateTopKIntoGradLength: a gradient of the wrong length is a
// programming error, reported by a panic naming both lengths.
func TestAccumulateTopKIntoGradLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched gradient length accepted")
		}
	}()
	AccumulateTopKInto(&Vector{}, &SelectScratch{}, make([]float32, 4), make([]float32, 3), 1)
}

// TestShardSelectorAccumulateMatchesSerial: with a gradient to add, the
// sharded entry point must leave the same residual and return the same
// selection as the serial kernel, including when k exceeds a shard's
// length and every shard entry becomes a candidate.
func TestShardSelectorAccumulateMatchesSerial(t *testing.T) {
	const n = 4 * minShardElems
	fam := kernelInputFamilies(17, n)
	grad := fam["normal"]
	for _, name := range []string{"normal", "ties"} {
		for _, k := range []int{1, 100, n / 3, n - 1} {
			wantAcc := append([]float32(nil), fam[name]...)
			want := &Vector{}
			AccumulateTopKInto(want, &SelectScratch{}, wantAcc, grad, k)
			for _, shards := range []int{2, 3, 4} {
				gotAcc := append([]float32(nil), fam[name]...)
				got := &Vector{}
				NewShardSelector(shards).AccumulateTopKInto(got, gotAcc, grad, k)
				if !vectorsEqualBits(want, got) {
					t.Fatalf("%s k=%d shards=%d: selection differs from the serial kernel", name, k, shards)
				}
				for i := range wantAcc {
					if math.Float32bits(wantAcc[i]) != math.Float32bits(gotAcc[i]) {
						t.Fatalf("%s k=%d shards=%d: residual[%d] differs", name, k, shards, i)
					}
				}
			}
		}
	}
}
