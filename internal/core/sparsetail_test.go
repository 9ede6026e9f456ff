package core_test

// The sparse-update tail wall: every aggregator whose result is sparse
// reports UpdateSupport, and the trainer then clips and steps only the
// support (plus one fused momentum pass). These tests pin that path bit
// for bit against the dense path, reached by hiding UpdateSupport behind
// a shim around the very same aggregator.

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/quant"
	"gtopkssgd/internal/transport"
)

const (
	tailDim   = 64
	tailK     = 8 // density tailK/tailDim for the bucketed and layerwise cases
	tailSteps = 7
)

// denseView hides every method of the wrapped aggregator but Aggregate
// and Name, so the trainer takes the dense (nil-support) apply path.
type denseView struct{ core.Aggregator }

// tailAggregators is the table of sparse-result aggregators under test.
var tailAggregators = []struct {
	name string
	make func(comm *collective.Comm) (core.Aggregator, error)
}{
	{"gtopk", func(c *collective.Comm) (core.Aggregator, error) {
		return core.NewGTopKAggregator(c, tailDim, tailK)
	}},
	{"topk", func(c *collective.Comm) (core.Aggregator, error) {
		return core.NewTopKAggregator(c, tailDim, tailK)
	}},
	{"gtopk-quorum", func(c *collective.Comm) (core.Aggregator, error) {
		a, err := core.NewGTopKAggregator(c, tailDim, tailK)
		if err != nil {
			return nil, err
		}
		return a, a.SetQuorum(core.QuorumConfig{Q: c.Size(), Timeout: 10 * time.Second})
	}},
	{"hier-G2", func(c *collective.Comm) (core.Aggregator, error) {
		return core.NewHierarchicalAggregator(c, tailDim, tailK, 2)
	}},
	{"bucketed-B4", func(c *collective.Comm) (core.Aggregator, error) {
		return core.NewBucketedAggregator(c, []int{0, 10, 30, 40, tailDim}, float64(tailK)/tailDim)
	}},
	{"ps", func(c *collective.Comm) (core.Aggregator, error) {
		return core.NewPSGTopKAggregator(c, tailDim, tailK)
	}},
	{"layerwise", func(c *collective.Comm) (core.Aggregator, error) {
		return core.NewLayerwiseGTopKAggregator(c, []int{0, 24, 40, tailDim}, float64(tailK)/tailDim)
	}},
	{"quant8", func(c *collective.Comm) (core.Aggregator, error) {
		return quant.NewQuantizedGTopKAggregator(c, tailDim, tailK, 99)
	}},
}

// tailGrad returns rank's gradient function. Step 0 (and every third
// step) has fewer non-zeros than k, so selection fills up with zeros at
// the threshold, -0 included; the other steps mix threshold ties with
// weight-dependent values large enough for a clip of 1 to bite.
func tailGrad(rank int) core.GradFn {
	return func(iter int, weights, grad []float32) float64 {
		rng := prng.New(uint64(1000*rank + iter + 1))
		for i := range grad {
			switch {
			case iter%3 == 0:
				grad[i] = 0
				if i%5 == 0 {
					grad[i] = float32(math.Copysign(0, -1))
				}
				if i == 3 || i == 17+rank || i == 40 {
					grad[i] = float32(rng.NormFloat64()) * 4
				}
			case i%2 == 0:
				grad[i] = []float32{-3, -1, float32(math.Copysign(0, -1)), 0, 1, 3}[rng.Intn(6)]
			default:
				grad[i] = 2*weights[i] + float32(rng.NormFloat64())*3
			}
		}
		return 0
	}
}

// runTail trains every rank for tailSteps and returns each rank's final
// weights and velocity.
func runTail(t *testing.T, fabric transport.Fabric, cfg core.TrainConfig, hide bool,
	mk func(*collective.Comm) (core.Aggregator, error)) (weights, velocity [][]float32) {
	t.Helper()
	p := fabric.Size()
	trainers := make([]*core.Trainer, p)
	init := prng.New(7)
	w0 := make([]float32, tailDim)
	for i := range w0 {
		w0[i] = float32(init.NormFloat64())
	}
	_, err := core.RunCluster(context.Background(), core.ClusterConfig{Workers: p, Steps: tailSteps, Fabric: fabric},
		func(rank int, comm *collective.Comm) (*core.Trainer, error) {
			agg, err := mk(comm)
			if err != nil {
				return nil, err
			}
			if _, ok := agg.(interface{ UpdateSupport() []int32 }); !ok {
				return nil, fmt.Errorf("%s does not report its update support", agg.Name())
			}
			if hide {
				agg = denseView{agg}
			}
			tr, err := core.NewTrainer(cfg, agg, append([]float32(nil), w0...), tailGrad(rank))
			trainers[rank] = tr
			return tr, err
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trainers {
		weights = append(weights, tr.Weights())
		velocity = append(velocity, tr.Velocity())
	}
	return weights, velocity
}

func assertBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), dense path %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestSparseTailMatchesDensePath: for every sparse-result aggregator,
// momentum {0, 0.9}, clip {0, 1}, P in {2, 4} and both fabrics, the
// support-aware tail leaves weights and velocity bit-identical to the
// dense tail over the same aggregator.
func TestSparseTailMatchesDensePath(t *testing.T) {
	fabrics := []struct {
		name string
		make func(p int) (transport.Fabric, error)
	}{
		{"inproc", func(p int) (transport.Fabric, error) { return transport.NewInProc(p) }},
		{"tcp", func(p int) (transport.Fabric, error) { return transport.NewTCP(p) }},
	}
	for _, fab := range fabrics {
		for _, p := range []int{2, 4} {
			for _, agg := range tailAggregators {
				for _, mom := range []float32{0, 0.9} {
					for _, clip := range []float32{0, 1} {
						name := fmt.Sprintf("%s/P%d/%s/mom%g/clip%g", fab.name, p, agg.name, mom, clip)
						t.Run(name, func(t *testing.T) {
							cfg := core.TrainConfig{LR: 0.1, Momentum: mom, GradClip: clip}
							var w, v [2][][]float32
							for i, hide := range []bool{false, true} {
								f, err := fab.make(p)
								if err != nil {
									t.Fatal(err)
								}
								w[i], v[i] = runTail(t, f, cfg, hide, agg.make)
								f.Close()
							}
							for r := 0; r < p; r++ {
								assertBits(t, fmt.Sprintf("rank %d weights", r), w[0][r], w[1][r])
								assertBits(t, fmt.Sprintf("rank %d velocity", r), v[0][r], v[1][r])
							}
						})
					}
				}
			}
		}
	}
}
