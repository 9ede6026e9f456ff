package core

import (
	"fmt"
	"testing"

	"gtopkssgd/internal/prng"
)

// BenchmarkSparsifierSelect times one error-feedback step of Algorithm 4
// lines 5-7 (accumulate the gradient into the residual, select the
// top-k, clear the selected entries) at the 4M-parameter size of the
// agg-4m end-to-end workload, for the paper's density (0.001), 0.01,
// 0.03 and the warmup density (0.0725). The fast kernels select with
// the block-max summary up to k = n/40 (rho 0.025) and with the
// two-pass histogram above it, so the first two densities time one
// kernel and the last two the other, 0.03 just past the gate. The
// residual carries over between iterations, as in training, and two
// seeded gradients alternate so successive steps do not add the same
// vector.
func BenchmarkSparsifierSelect(b *testing.B) {
	const dim = 4_000_000
	src := prng.New(7)
	grads := [2][]float32{make([]float32, dim), make([]float32, dim)}
	for _, g := range grads {
		for i := range g {
			g[i] = float32(src.NormFloat64())
		}
	}
	for _, rho := range []float64{0.001, 0.01, 0.03, 0.0725} {
		b.Run(fmt.Sprintf("rho=%g", rho), func(b *testing.B) {
			sp := NewSparsifier(dim)
			k := DensityToK(dim, rho)
			for i := 0; i < 4; i++ { // reach the steady residual spread
				if _, err := sp.Select(grads[i%2], k); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(4 * dim)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sp.Select(grads[i%2], k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
