package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// This file implements the two extensions the paper sketches but does not
// evaluate: gTop-k under a Parameter-Server topology (footnote 2: "it is
// also applicable to the Parameter Server based distributed SGD") and
// layer-wise sparsification (Section VII: "we would like to investigate
// layer-wise sparsification"). Both are exercised by dedicated ablation
// experiments in internal/bench.

// PSGTopKAllReduce aggregates sparse gradients through a star topology:
// every worker ships its top-k to rank 0 (the parameter server), which
// sums them, re-selects the global top-k, and broadcasts the result.
// Selection-wise this equals NaiveGTopKAllReduce (exact global top-k of
// the sum); communication-wise the server link carries (P−1) messages per
// phase, i.e. cost ≈ 2(P−1)(α + 2kβ), which scales worse than the tree's
// 2·logP rounds — the ablation quantifies exactly that gap.
func PSGTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k int) (*sparse.Vector, error) {
	const server = 0
	p := comm.Size()
	base := comm.ClaimTags(1)
	var global *sparse.Vector
	if comm.Rank() == server {
		sum := local.Clone()
		for src := 1; src < p; src++ {
			blob, err := comm.RecvTag(ctx, src, base)
			if err != nil {
				return nil, fmt.Errorf("core: ps gtopk recv from %d: %w", src, err)
			}
			v, err := sparse.Decode(blob)
			if err != nil {
				return nil, fmt.Errorf("core: ps gtopk payload from %d: %w", src, err)
			}
			if sum, err = sparse.Add(sum, v); err != nil {
				return nil, fmt.Errorf("core: ps gtopk sum: %w", err)
			}
			// The server pays one sequential round per worker.
			comm.ChargeRound(2 * k)
		}
		global = sparse.TopKSparse(sum, k)
	} else {
		if err := comm.SendTag(ctx, server, base, sparse.Encode(local)); err != nil {
			return nil, fmt.Errorf("core: ps gtopk send: %w", err)
		}
		// Workers wait while the server drains all P−1 uploads in turn.
		for i := 0; i < p-1; i++ {
			comm.ChargeRound(2 * k)
		}
	}
	var payload []byte
	if comm.Rank() == server {
		payload = sparse.Encode(global)
	}
	blob, err := comm.Bcast(ctx, server, payload)
	if err != nil {
		return nil, fmt.Errorf("core: ps gtopk bcast: %w", err)
	}
	out, err := sparse.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("core: ps gtopk bcast payload: %w", err)
	}
	return out, nil
}

// PSGTopKAggregator runs gTop-k S-SGD through PSGTopKAllReduce. Rank 0
// doubles as server and worker, as in classic PS deployments where the
// server is colocated.
type PSGTopKAggregator struct {
	comm *collective.Comm
	sp   *Sparsifier
	k    int
	SparseUpdate
}

// NewPSGTopKAggregator creates the PS-mode aggregator.
func NewPSGTopKAggregator(comm *collective.Comm, dim, k int) (*PSGTopKAggregator, error) {
	if err := validateK(dim, k); err != nil {
		return nil, err
	}
	return &PSGTopKAggregator{comm: comm, sp: NewSparsifier(dim), k: k, SparseUpdate: NewSparseUpdate(dim)}, nil
}

// Name implements Aggregator.
func (a *PSGTopKAggregator) Name() string { return "gtopk-ps" }

// Aggregate implements Aggregator.
func (a *PSGTopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	local, err := a.sp.Select(grad, a.k)
	if err != nil {
		return nil, fmt.Errorf("core: ps aggregate: %w", err)
	}
	global, err := PSGTopKAllReduce(ctx, a.comm, local, a.k)
	if err != nil {
		return nil, err
	}
	a.sp.PutBack(local, global.Indices)
	return a.Densify(global, 1/float32(a.comm.Size())), nil
}

// LayerwiseGTopKAggregator applies gTop-k independently per layer
// segment: each layer l with m_l parameters contributes k_l = max(1,
// ρ·m_l) globally selected gradients. This is the layer-wise
// sparsification of the paper's future-work section; it trades slightly
// more selected coordinates (Σ k_l ≥ k) and logP·L communication rounds
// for per-layer fairness (the single global top-k tends to starve
// small-gradient layers, the effect the paper blames for AlexNet's slight
// convergence degradation).
type LayerwiseGTopKAggregator struct {
	comm     *collective.Comm
	sp       *Sparsifier
	segments []int // cumulative offsets: layer l covers [segments[l], segments[l+1])
	density  float64
	SparseUpdate
}

// NewLayerwiseGTopKAggregator creates the aggregator. bounds are the
// cumulative layer offsets (bounds[0] = 0, bounds[L] = dim, strictly
// increasing).
func NewLayerwiseGTopKAggregator(comm *collective.Comm, bounds []int, density float64) (*LayerwiseGTopKAggregator, error) {
	if len(bounds) < 2 || bounds[0] != 0 {
		return nil, fmt.Errorf("core: layerwise: bounds must start at 0 and cover >=1 layer")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("core: layerwise: bounds not strictly increasing at %d", i)
		}
	}
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("core: layerwise: density %v out of (0,1]", density)
	}
	dim := bounds[len(bounds)-1]
	return &LayerwiseGTopKAggregator{
		comm:         comm,
		sp:           NewSparsifier(dim),
		segments:     bounds,
		density:      density,
		SparseUpdate: NewSparseUpdate(dim),
	}, nil
}

// Name implements Aggregator.
func (a *LayerwiseGTopKAggregator) Name() string { return "gtopk-layerwise" }

// Aggregate implements Aggregator.
func (a *LayerwiseGTopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	dim := a.segments[len(a.segments)-1]
	if len(grad) != dim {
		return nil, fmt.Errorf("core: layerwise aggregate: dim %d, want %d", len(grad), dim)
	}
	// Accumulate into the shared residual once, then select per layer.
	res := a.sp.Residual()
	for i, g := range grad {
		res[i] += g
	}
	a.clear()
	inv := 1 / float32(a.comm.Size())
	for l := 0; l+1 < len(a.segments); l++ {
		lo, hi := a.segments[l], a.segments[l+1]
		k := DensityToK(hi-lo, a.density)
		seg := res[lo:hi]
		local := sparse.TopK(seg, k)
		for _, idx := range local.Indices {
			seg[idx] = 0
		}
		global, err := GTopKAllReduce(ctx, a.comm, local, k)
		if err != nil {
			return nil, fmt.Errorf("core: layerwise segment %d: %w", l, err)
		}
		// Put back locally-sent values that did not survive globally.
		j := 0
		for i, idx := range local.Indices {
			for j < len(global.Indices) && global.Indices[j] < idx {
				j++
			}
			if j < len(global.Indices) && global.Indices[j] == idx {
				continue
			}
			seg[idx] += local.Values[i]
		}
		a.scatter(lo, global, inv)
	}
	return a.dense, nil
}

// LayerBounds derives cumulative parameter offsets from per-layer counts.
func LayerBounds(counts []int) []int {
	bounds := make([]int, len(counts)+1)
	for i, c := range counts {
		bounds[i+1] = bounds[i] + c
	}
	return bounds
}
