package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/prng"
	"gtopkssgd/internal/sparse"
	"gtopkssgd/internal/tensor"
	"gtopkssgd/internal/transport"
)

// TestSparseUpdateTracksScheduledK drives aggregators whose k grows and
// shrinks every step (ties and ±0 in the input, k up to dim) and checks
// after every step that the incrementally kept buffer equals the old
// zero-all → ScatterAdd → scale-all result bit for bit, that it is zero
// off UpdateSupport, and that the support is exactly the global result's
// indices. Between steps the caller clips the support in place, as the
// trainer does, which the next step must fully overwrite.
func TestSparseUpdateTracksScheduledK(t *testing.T) {
	const dim, p = 64, 4
	ks := []int{1, 40, 3, 64, 7, 20, 2, 64, 1, 33}
	schedule := func(step int) int { return ks[step%len(ks)] }
	cases := []struct {
		name   string
		make   func(*collective.Comm) (scheduledAggregator, error)
		global func(Aggregator) *sparse.Vector
	}{
		{"gtopk", func(c *collective.Comm) (scheduledAggregator, error) { return NewGTopKAggregator(c, dim, 1) },
			func(a Aggregator) *sparse.Vector { return &a.(*GTopKAggregator).global }},
		{"hier-G2", func(c *collective.Comm) (scheduledAggregator, error) { return NewHierarchicalAggregator(c, dim, 1, 2) },
			func(a Aggregator) *sparse.Vector { return &a.(*HierarchicalAggregator).global }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := transport.NewInProc(p)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			errs := make([]error, p)
			var wg sync.WaitGroup
			for r := 0; r < p; r++ {
				wg.Add(1)
				go func(rank int) {
					defer wg.Done()
					errs[rank] = checkScheduledRank(f.Conn(rank), rank, dim, len(ks)*2, schedule, tc.make, tc.global)
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}

type scheduledAggregator interface {
	Aggregator
	SetSchedule(func(int) int)
	UpdateSupport() []int32
}

func checkScheduledRank(conn transport.Conn, rank, dim, steps int, schedule func(int) int,
	mk func(*collective.Comm) (scheduledAggregator, error), global func(Aggregator) *sparse.Vector) error {
	comm := collective.New(conn)
	agg, err := mk(comm)
	if err != nil {
		return err
	}
	agg.SetSchedule(schedule)
	inv := 1 / float32(comm.Size())
	grad := make([]float32, dim)
	rng := prng.New(uint64(rank) + 11)
	negZero := float32(math.Copysign(0, -1))
	for step := 0; step < steps; step++ {
		for i := range grad {
			grad[i] = []float32{-2, -1, negZero, 0, 0, 1, 2, float32(rng.NormFloat64())}[rng.Intn(8)]
		}
		upd, err := agg.Aggregate(context.Background(), grad)
		if err != nil {
			return err
		}
		g := global(agg)
		want := make([]float32, dim)
		g.ScatterAdd(want)
		for i := range want {
			want[i] *= inv
		}
		for i := range want {
			if math.Float32bits(upd[i]) != math.Float32bits(want[i]) {
				return fmt.Errorf("step %d (k=%d): update[%d] = %v, dense rebuild %v", step, schedule(step), i, upd[i], want[i])
			}
		}
		support := agg.UpdateSupport()
		if !slices.Equal(support, g.Indices) {
			return fmt.Errorf("step %d: support %v, global indices %v", step, support, g.Indices)
		}
		on := make([]bool, dim)
		for _, i := range support {
			on[i] = true
			upd[i] = min(max(upd[i], -0.01), 0.01) // a caller's in-place clip
		}
		for i, v := range upd {
			if !on[i] && math.Float32bits(v) != 0 {
				return fmt.Errorf("step %d: update[%d] = %v off the support", step, i, v)
			}
		}
	}
	return nil
}

// TestApplyMatchesTwoPassTail pins TrainConfig.apply, with and without a
// support, to the tail it replaced: clip every entry, a momentum pass,
// then an axpy over the velocity (or the update without momentum).
func TestApplyMatchesTwoPassTail(t *testing.T) {
	const dim = 257
	rng := prng.New(5)
	for _, cfg := range []TrainConfig{
		{LR: 0.1}, {LR: 0.1, GradClip: 0.5}, {LR: 0.03, Momentum: 0.9}, {LR: 0.03, Momentum: 0.9, GradClip: 0.5},
	} {
		w0, v0, upd := make([]float32, dim), make([]float32, dim), make([]float32, dim)
		var support []int32
		for i := range w0 {
			w0[i] = float32(rng.NormFloat64())
			v0[i] = float32(rng.NormFloat64())
			if i%7 == 0 || i == 1 {
				support = append(support, int32(i))
				upd[i] = float32(rng.NormFloat64())
			}
		}
		upd[1] = float32(math.Copysign(0, -1))

		wantW, wantV, u := slices.Clone(w0), slices.Clone(v0), slices.Clone(upd)
		if cfg.GradClip > 0 {
			tensor.Clip(u, cfg.GradClip)
		}
		if cfg.Momentum > 0 {
			for i := range u {
				wantV[i] = cfg.Momentum*wantV[i] + u[i]
			}
			tensor.AxpyInto(wantW, -cfg.LR, wantV)
		} else {
			tensor.AxpyInto(wantW, -cfg.LR, u)
		}

		for _, sup := range [][]int32{nil, support} {
			w, v, u := slices.Clone(w0), slices.Clone(v0), slices.Clone(upd)
			cfg.apply(w, v, u, sup)
			for i := range w {
				if math.Float32bits(w[i]) != math.Float32bits(wantW[i]) || math.Float32bits(v[i]) != math.Float32bits(wantV[i]) {
					t.Fatalf("%+v support=%v: entry %d: w=%v v=%v, two-pass w=%v v=%v",
						cfg, sup != nil, i, w[i], v[i], wantW[i], wantV[i])
				}
			}
		}
	}
}

// TestSparseUpdateSignedZero: Densify stores (0+v)·inv, so a −0 value
// reads +0 as after zeroing, scatter-adding and scaling, and the next
// Densify leaves nothing of the previous support behind.
func TestSparseUpdateSignedZero(t *testing.T) {
	u := NewSparseUpdate(4)
	negZero := float32(math.Copysign(0, -1))
	got := u.Densify(&sparse.Vector{Dim: 4, Indices: []int32{1, 2}, Values: []float32{negZero, -3}}, 0.5)
	want := []float32{0, 0, -1.5, 0}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("entry %d = %v (%#x), want %v", i, got[i], math.Float32bits(got[i]), want[i])
		}
	}
	got = u.Densify(&sparse.Vector{Dim: 4, Indices: []int32{3}, Values: []float32{2}}, 0.5)
	if !slices.Equal(got, []float32{0, 0, 0, 1}) || !slices.Equal(u.UpdateSupport(), []int32{3}) {
		t.Fatalf("second update %v on support %v, want [0 0 0 1] on [3]", got, u.UpdateSupport())
	}
}
