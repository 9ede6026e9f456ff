package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/transport"
)

// runPipelinedCluster runs the pipelined trainer SPMD-style (RunCluster
// only drives the synchronous Trainer, so the pipeline test wires its
// own goroutines).
func runPipelinedCluster(t *testing.T, p, dim, steps int, lr float32,
	makeAgg func(comm *collective.Comm) (Aggregator, error)) ([][]float32, [][]float64) {
	t.Helper()
	f, err := transport.NewInProc(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	target := makeTarget(dim)

	weights := make([][]float32, p)
	losses := make([][]float64, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := collective.New(f.Conn(rank))
			agg, err := makeAgg(comm)
			if err != nil {
				errs[rank] = err
				return
			}
			tr, err := NewPipelinedTrainer(TrainConfig{LR: lr}, agg,
				make([]float32, dim), quadGrad(target, uint64(rank)))
			if err != nil {
				errs[rank] = err
				return
			}
			for s := 0; s < steps; s++ {
				loss, err := tr.Step(context.Background())
				if err != nil {
					errs[rank] = err
					return
				}
				losses[rank] = append(losses[rank], loss)
			}
			if err := tr.Flush(); err != nil {
				errs[rank] = err
				return
			}
			weights[rank] = append([]float32(nil), tr.Weights()...)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return weights, losses
}

func TestPipelinedDenseConverges(t *testing.T) {
	const p, dim, steps = 4, 48, 200
	weights, losses := runPipelinedCluster(t, p, dim, steps, 0.2,
		func(comm *collective.Comm) (Aggregator, error) {
			return NewDenseAggregator(comm, dim), nil
		})
	if losses[0][steps-1] > losses[0][0]/20 {
		t.Fatalf("pipelined dense did not converge: %v -> %v",
			losses[0][0], losses[0][steps-1])
	}
	for r := 1; r < p; r++ {
		for i := range weights[0] {
			if weights[r][i] != weights[0][i] {
				t.Fatalf("pipelined replicas diverged at %d", i)
			}
		}
	}
}

func TestPipelinedGTopKConverges(t *testing.T) {
	const p, dim, steps = 4, 48, 400
	weights, losses := runPipelinedCluster(t, p, dim, steps, 0.05,
		func(comm *collective.Comm) (Aggregator, error) {
			return NewGTopKAggregator(comm, dim, 6)
		})
	if losses[0][steps-1] > losses[0][0]/10 {
		t.Fatalf("pipelined gTop-k did not converge: %v -> %v",
			losses[0][0], losses[0][steps-1])
	}
	for r := 1; r < p; r++ {
		for i := range weights[0] {
			if weights[r][i] != weights[0][i] {
				t.Fatalf("pipelined gTop-k replicas diverged at %d", i)
			}
		}
	}
}

func TestPipelinedMatchesSynchronousUpToStaleness(t *testing.T) {
	// With a constant gradient the pipelined trainer applies exactly one
	// fewer update after n steps (the last one waits in flight) and the
	// same updates otherwise.
	const dim = 1
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	constGrad := func(_ int, _, grad []float32) float64 { grad[0] = 1; return 0 }

	sync1, err := NewTrainer(TrainConfig{LR: 0.1},
		NewDenseAggregator(collective.New(f.Conn(0)), dim), make([]float32, dim), constGrad)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := sync1.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	f2, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	pipe, err := NewPipelinedTrainer(TrainConfig{LR: 0.1},
		NewDenseAggregator(collective.New(f2.Conn(0)), dim), make([]float32, dim), constGrad)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := pipe.Step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// Before Flush: 4 applied updates; after: all 5.
	if got, want := pipe.Weights()[0], float32(-0.4); got != want {
		t.Fatalf("pre-flush weight %v, want %v", got, want)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := pipe.Weights()[0], sync1.Weights()[0]; got != want {
		t.Fatalf("post-flush weight %v, sync weight %v", got, want)
	}
}

func TestPipelinedFlushIdempotent(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pipe, err := NewPipelinedTrainer(TrainConfig{LR: 0.1},
		NewDenseAggregator(collective.New(f.Conn(0)), 1), make([]float32, 1),
		func(_ int, _, grad []float32) float64 { grad[0] = 1; return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatalf("flush with nothing in flight: %v", err)
	}
	if _, err := pipe.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.Flush(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
}

func TestPipelinedPropagatesAggregationErrors(t *testing.T) {
	f, err := transport.NewInProc(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pipe, err := NewPipelinedTrainer(TrainConfig{LR: 0.1},
		failingAggregator{}, make([]float32, 1),
		func(_ int, _, grad []float32) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Step(context.Background()); err != nil {
		t.Fatal(err) // first step only launches the aggregation
	}
	if _, err := pipe.Step(context.Background()); err == nil {
		t.Fatal("aggregation error not surfaced on next step")
	}
}

// TestPipelinedStepAllocsIndependentOfDim: a pipelined step hands its
// gradient over by swapping two persistent buffers and applies the
// aggregator's own update buffer, so what a step allocates does not grow
// with the model dimension.
func TestPipelinedStepAllocsIndependentOfDim(t *testing.T) {
	perStep := func(dim int) (allocs, bytes float64) {
		pipe, err := NewPipelinedTrainer(TrainConfig{LR: 0.1, Momentum: 0.9, GradClip: 1},
			&copyAggregator{buf: make([]float32, dim)}, make([]float32, dim),
			func(_ int, _, grad []float32) float64 { grad[0] = 2; return 0 })
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if _, err := pipe.Step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		step()
		allocs = testing.AllocsPerRun(50, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if err := pipe.Flush(); err != nil {
			t.Fatal(err)
		}
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 50
	}
	smallAllocs, _ := perStep(1 << 10)
	bigAllocs, bigBytes := perStep(1 << 18)
	if bigAllocs > smallAllocs {
		t.Errorf("%v allocations per step at dim 2^18, %v at dim 2^10", bigAllocs, smallAllocs)
	}
	if bigBytes > 4096 {
		t.Errorf("%.0f bytes allocated per step at dim 2^18 (a gradient is %d bytes)", bigBytes, 4<<18)
	}
}

// copyAggregator returns the local gradient as the update, from its own
// buffer and without allocating.
type copyAggregator struct{ buf []float32 }

func (a *copyAggregator) Name() string { return "copy" }
func (a *copyAggregator) Aggregate(_ context.Context, grad []float32) ([]float32, error) {
	copy(a.buf, grad)
	return a.buf, nil
}

func TestPipelinedConstructorValidation(t *testing.T) {
	if _, err := NewPipelinedTrainer(TrainConfig{LR: 0}, nil, nil, nil); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewPipelinedTrainer(TrainConfig{LR: 1}, nil, make([]float32, 1), nil); err == nil {
		t.Fatal("nil aggregator accepted")
	}
}

type failingAggregator struct{}

func (failingAggregator) Name() string { return "failing" }
func (failingAggregator) Aggregate(context.Context, []float32) ([]float32, error) {
	return nil, fmt.Errorf("injected failure")
}
