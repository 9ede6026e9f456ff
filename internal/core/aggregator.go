package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/sparse"
)

// Aggregator turns one worker's local dense gradient into the globally
// agreed model update for this iteration. Implementations differ in what
// they communicate; all return the same length-dim dense update vector
// (the MEAN gradient contribution, i.e. already divided by P) and must
// produce bit-identical updates on every rank so replicas never diverge.
//
// The returned buffer belongs to the aggregator and stays valid until
// the next Aggregate. Aggregators with a sparse result also report
// UpdateSupport() []int32, the indices where it may be non-zero (see
// SparseUpdate). Callers may rewrite entries only on that support (on
// every entry when it is not reported), and only with zero-preserving
// maps such as clipping.
type Aggregator interface {
	// Aggregate consumes grad (not retained) and returns the dense update.
	Aggregate(ctx context.Context, grad []float32) ([]float32, error)
	// Name identifies the algorithm in logs and experiment tables.
	Name() string
}

// SparseUpdate is the dense update buffer of an aggregator with a sparse
// result. It clears only the previous step's support and writes the new
// entries, so densifying costs O(k) instead of O(dim). Aggregators embed
// it for its UpdateSupport method, which the optimizer tail reads.
type SparseUpdate struct {
	dense   []float32
	support []int32
}

// NewSparseUpdate returns an all-zero dim-length update.
func NewSparseUpdate(dim int) SparseUpdate {
	return SparseUpdate{dense: make([]float32, dim), support: []int32{}}
}

// UpdateSupport returns the indices where the last update may be
// non-zero, valid until the aggregator's next Aggregate.
func (u *SparseUpdate) UpdateSupport() []int32 { return u.support }

// Densify replaces the update with v·inv and returns the dense buffer.
func (u *SparseUpdate) Densify(v *sparse.Vector, inv float32) []float32 {
	u.clear()
	u.scatter(0, v, inv)
	return u.dense
}

func (u *SparseUpdate) clear() {
	for _, i := range u.support {
		u.dense[i] = 0
	}
	u.support = u.support[:0]
}

// scatter writes v·inv at off+index and adds those indices to the
// support; v must not overlap entries written since the last clear. The
// 0+ keeps every bit, signed zeros included, equal to zeroing the buffer,
// scatter-adding v and scaling all entries by inv.
func (u *SparseUpdate) scatter(off int, v *sparse.Vector, inv float32) {
	for i, idx := range v.Indices {
		j := off + int(idx)
		u.dense[j] = (0 + v.Values[i]) * inv
		u.support = append(u.support, int32(j))
	}
}

// DenseAggregator implements classic S-SGD: ring AllReduce over the full
// dense gradient (Eq. 3 + Eq. 5).
type DenseAggregator struct {
	comm *collective.Comm
	buf  []float32
}

// NewDenseAggregator creates a dense-gradient aggregator for a
// dim-parameter model.
func NewDenseAggregator(comm *collective.Comm, dim int) *DenseAggregator {
	return &DenseAggregator{comm: comm, buf: make([]float32, dim)}
}

// Name implements Aggregator.
func (a *DenseAggregator) Name() string { return "dense" }

// Aggregate implements Aggregator.
func (a *DenseAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if len(grad) != len(a.buf) {
		return nil, fmt.Errorf("core: dense aggregate: dim %d, want %d", len(grad), len(a.buf))
	}
	copy(a.buf, grad)
	if err := a.comm.RingAllReduceMean(ctx, a.buf); err != nil {
		return nil, fmt.Errorf("core: dense aggregate: %w", err)
	}
	return a.buf, nil
}

// TopKAggregator implements Top-k S-SGD (Algorithm 1): local top-k
// selection with error feedback, AllGather-based aggregation, average of
// the union support.
type TopKAggregator struct {
	comm     *collective.Comm
	sp       *Sparsifier
	k        int
	schedule func(step int) int
	step     int
	mu       float32
	velocity []float32
	orig     []float32 // pre-transform value snapshot for FoldError (reused)
	SparseUpdate
}

// NewTopKAggregator creates a Top-k aggregator selecting k of dim
// gradients per iteration.
func NewTopKAggregator(comm *collective.Comm, dim, k int) (*TopKAggregator, error) {
	if err := validateK(dim, k); err != nil {
		return nil, err
	}
	return &TopKAggregator{
		comm:         comm,
		sp:           NewSparsifier(dim),
		k:            k,
		SparseUpdate: NewSparseUpdate(dim),
	}, nil
}

// Name implements Aggregator.
func (a *TopKAggregator) Name() string { return "topk" }

// SetK retunes the per-iteration selection count (warmup schedules).
func (a *TopKAggregator) SetK(k int) error {
	if err := validateK(a.sp.Dim(), k); err != nil {
		return err
	}
	a.k = k
	return nil
}

// SetSchedule installs a per-step selection-count schedule (the paper's
// warmup uses per-epoch densities [0.25, 0.0725, 0.015, 0.004] before the
// target density). The schedule overrides the static k; it must return
// values in [1, dim] and must be identical on every rank.
func (a *TopKAggregator) SetSchedule(f func(step int) int) { a.schedule = f }

// SetMomentumCorrection enables DGC-style momentum correction (Lin et
// al., cited as [12]): momentum is accumulated LOCALLY before
// sparsification (u ← µ·u + g; the residual accumulates u), so deferred
// coordinates carry their momentum history instead of having a global
// momentum term amplify spiky sparse updates. When enabled, configure
// the trainer with Momentum: 0.
func (a *TopKAggregator) SetMomentumCorrection(mu float32) {
	a.mu = mu
	if mu > 0 && a.velocity == nil {
		a.velocity = make([]float32, a.sp.Dim())
	}
}

// Sparsifier exposes the residual state for diagnostics.
func (a *TopKAggregator) Sparsifier() *Sparsifier { return a.sp }

// Aggregate implements Aggregator.
func (a *TopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if a.schedule != nil {
		if err := a.SetK(a.schedule(a.step)); err != nil {
			return nil, fmt.Errorf("core: topk schedule: %w", err)
		}
	}
	a.step++
	grad = applyMomentumCorrection(a.mu, a.velocity, grad)
	local, err := a.sp.Select(grad, a.k)
	if err != nil {
		return nil, fmt.Errorf("core: topk aggregate: %w", err)
	}
	a.orig = snapshotForFold(a.comm.WireCodec(), local, a.orig)
	sum, err := TopKAllReduce(ctx, a.comm, local)
	if err != nil {
		return nil, err
	}
	if a.orig != nil {
		a.sp.FoldError(local.Indices, a.orig, local.Values)
	}
	return a.Densify(sum, 1/float32(a.comm.Size())), nil
}

// GTopKAggregator implements gTop-k S-SGD (Algorithm 4): local top-k
// selection, tree-based global top-k aggregation (Algorithm 3), residual
// put-back for locally-sent-but-globally-dropped values, average by P.
type GTopKAggregator struct {
	comm      *collective.Comm
	sp        *Sparsifier
	k         int
	naive     bool // use Algorithm 2's AllGather path instead of the tree
	noPutBack bool
	schedule  func(step int) int
	step      int
	mu        float32
	velocity  []float32
	orig      []float32     // pre-transform value snapshot for FoldError (reused)
	global    sparse.Vector // reused tree-collective result (zero steady-state allocs)
	SparseUpdate

	// quorum, when enabled (Q > 0), replaces the flat tree with the
	// straggler-tolerant quorum collective; missStreak counts this rank's
	// consecutive missed rounds for degraded-rank reporting.
	quorum     QuorumConfig
	missStreak int
}

// NewGTopKAggregator creates a gTop-k aggregator selecting k of dim
// gradients globally per iteration using the efficient tree algorithm.
func NewGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	if err := validateK(dim, k); err != nil {
		return nil, err
	}
	return &GTopKAggregator{
		comm:         comm,
		sp:           NewSparsifier(dim),
		k:            k,
		SparseUpdate: NewSparseUpdate(dim),
	}, nil
}

// NewNaiveGTopKAggregator creates the Algorithm 2 variant that reaches
// the same global top-k selection through a full AllGather — used for
// Fig. 1 and for tree-vs-naive equivalence experiments.
func NewNaiveGTopKAggregator(comm *collective.Comm, dim, k int) (*GTopKAggregator, error) {
	a, err := NewGTopKAggregator(comm, dim, k)
	if err != nil {
		return nil, err
	}
	a.naive = true
	return a, nil
}

// Name implements Aggregator.
func (a *GTopKAggregator) Name() string {
	if a.naive {
		return "gtopk-naive"
	}
	if a.quorum.Q > 0 {
		return "gtopk-quorum"
	}
	return "gtopk"
}

// SetQuorum enables the straggler-tolerant quorum collective: rounds
// close after cfg.Q of P contributions or cfg.Timeout, whichever allows
// it first (never under quorum), and a missed rank's selected mass is
// refunded to its residual instead of entering the round. Incompatible
// with the naive AllGather path. A zero cfg disables quorum mode.
func (a *GTopKAggregator) SetQuorum(cfg QuorumConfig) error {
	if cfg == (QuorumConfig{}) {
		a.quorum = cfg
		return nil
	}
	if a.naive {
		return fmt.Errorf("core: quorum mode requires the tree collective, not gtopk-naive")
	}
	if err := cfg.Validate(a.comm.Size()); err != nil {
		return err
	}
	a.quorum = cfg
	return nil
}

// QuorumMissStreak returns how many consecutive rounds this rank's
// contribution has missed the quorum deadline (0 when participating or
// when quorum mode is off) — the signal the cluster runtime turns into
// degraded-rank reports.
func (a *GTopKAggregator) QuorumMissStreak() int { return a.missStreak }

// SetK retunes the per-iteration selection count (warmup schedules).
func (a *GTopKAggregator) SetK(k int) error {
	if err := validateK(a.sp.Dim(), k); err != nil {
		return err
	}
	a.k = k
	return nil
}

// SetSchedule installs a per-step selection-count schedule; see
// TopKAggregator.SetSchedule.
func (a *GTopKAggregator) SetSchedule(f func(step int) int) { a.schedule = f }

// SetPutBack toggles Algorithm 4 line 10 (returning globally-dropped
// values to the residual). Disabling it isolates the contribution of
// the extra-residual mechanism — the reproduction's residual ablation.
func (a *GTopKAggregator) SetPutBack(enabled bool) { a.noPutBack = !enabled }

// SetMomentumCorrection enables DGC-style momentum correction; see
// TopKAggregator.SetMomentumCorrection.
func (a *GTopKAggregator) SetMomentumCorrection(mu float32) {
	a.mu = mu
	if mu > 0 && a.velocity == nil {
		a.velocity = make([]float32, a.sp.Dim())
	}
}

// Sparsifier exposes the residual state for diagnostics.
func (a *GTopKAggregator) Sparsifier() *Sparsifier { return a.sp }

// Aggregate implements Aggregator.
func (a *GTopKAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if a.schedule != nil {
		if err := a.SetK(a.schedule(a.step)); err != nil {
			return nil, fmt.Errorf("core: gtopk schedule: %w", err)
		}
	}
	a.step++
	grad = applyMomentumCorrection(a.mu, a.velocity, grad)
	local, err := a.sp.Select(grad, a.k)
	if err != nil {
		return nil, fmt.Errorf("core: gtopk aggregate: %w", err)
	}
	if a.quorum.Q > 0 {
		// Quorum mode always snapshots the pre-transform values: a round
		// this rank misses refunds the FULL selected mass, not just the
		// codec error.
		a.orig = append(a.orig[:0], local.Values...)
	} else {
		a.orig = snapshotForFold(a.comm.WireCodec(), local, a.orig)
	}
	var global *sparse.Vector
	var participated = true
	switch {
	case a.naive:
		global, err = NaiveGTopKAllReduce(ctx, a.comm, local, a.k)
	case a.quorum.Q > 0:
		participated, _, err = QuorumGTopKAllReduceInto(ctx, a.comm, local, a.k, a.quorum, &a.global)
		global = &a.global
	default:
		// The result vector is owned by the aggregator and reused every
		// iteration, keeping the whole tree collective allocation-free.
		err = GTopKAllReduceInto(ctx, a.comm, local, a.k, ChunksFor(a.k), &a.global)
		global = &a.global
	}
	if err != nil {
		return nil, err
	}
	if !participated {
		// This rank's frame missed the round: nothing of it entered the
		// aggregate, so the whole selected mass is refunded to the
		// residual (conservation) and put-back must be skipped — the
		// update below is built purely from the other ranks' verdict.
		a.missStreak++
		a.sp.Refund(local.Indices, a.orig)
	} else {
		a.missStreak = 0
		// Compound pipeline: the wire transform replaced the values this
		// rank shipped with their lattice points in place; fold the
		// quantization error into the residual BEFORE PutBack, so a
		// globally-dropped index gets lattice value + error = its full
		// original mass back, and a survivor keeps exactly the error.
		// (In quorum mode the snapshot exists for every codec, but the
		// fold itself only applies where the transform was lossy —
		// otherwise orig equals the shipped values bit-for-bit and the
		// flat path's residual bits must be preserved exactly.)
		codec := a.comm.WireCodec()
		if a.orig != nil && codec.WireVersion() == 3 && codec.Lossy() {
			a.sp.FoldError(local.Indices, a.orig, local.Values)
		}
		// Algorithm 4 line 10: locally selected values whose index did not
		// survive globally go back into the residual.
		if !a.noPutBack {
			a.sp.PutBack(local, global.Indices)
		}
	}
	return a.Densify(global, 1/float32(a.comm.Size())), nil
}

// snapshotForFold copies local's values into buf (reusing its capacity)
// when the codec's wire transform may rewrite them in place — lossy v3
// codecs quantize the sender's copy so it matches what receivers decode
// — and returns nil when no fold is needed (the caller skips FoldError).
// The snapshot is the "orig" argument of Sparsifier.FoldError; on ranks
// whose tree role never sends, values stay untouched and the fold adds
// exact zeros, keeping the residual update uniform and deterministic.
func snapshotForFold(codec sparse.Codec, local *sparse.Vector, buf []float32) []float32 {
	if codec.WireVersion() != 3 || !codec.Lossy() {
		return nil
	}
	return append(buf[:0], local.Values...)
}

// applyMomentumCorrection folds grad into the local velocity and returns
// the velocity as the quantity to sparsify (identity when mu == 0).
func applyMomentumCorrection(mu float32, velocity, grad []float32) []float32 {
	if mu <= 0 {
		return grad
	}
	for i, g := range grad {
		velocity[i] = mu*velocity[i] + g
	}
	return velocity
}

func validateK(dim, k int) error {
	if k < 1 || k > dim {
		return fmt.Errorf("core: k=%d out of range [1,%d]", k, dim)
	}
	return nil
}
