package sparse

import (
	"fmt"
	"math"
	"testing"

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
// has them, and under the pure kernels up to pureCheckMaxN.
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
		got, cand := &Vector{}, &Vector{}
		withKernels(t, mode, func() { AccumulateTopKInto(got, cand, gotAcc, grad, k) })
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

// TestAccumulateTopKIntoMatchesReference pins the fused kernel to the
// unfused AddInto + TopKInto on every input family, on both sides of
// the fused size gate, for k from 1 to n and with and without a
// gradient to add.
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
		for name, acc := range accs {
			for _, k := range []int{0, 1, n/1000 + 1, n / 3, n - 1, n} {
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
	got, cand := &Vector{}, &Vector{}
	for step := 0; step < 12; step++ {
		grad := grads[step%len(grads)]
		want := accumulateReference(t, ref, grad, k)
		AccumulateTopKInto(got, cand, acc, grad, k)
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
	AccumulateTopKInto(&Vector{}, &Vector{}, make([]float32, 4), make([]float32, 3), 1)
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
			AccumulateTopKInto(want, &Vector{}, wantAcc, grad, k)
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
