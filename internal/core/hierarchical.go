package core

import (
	"context"
	"fmt"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/sparse"
)

// This file implements the two-level hierarchical gTop-k collective for
// large worlds: ranks are partitioned into contiguous groups of G, each
// group runs the chunk-pipelined gTop-k tree (GTopKAllReduceInto) over
// its members, the group leaders run a second gTop-k over the G-fold
// smaller leader world, and the merged global top-k broadcasts back down
// through the leaders. Every phase reuses the pinned flat collective as
// a black box, so the hierarchical result inherits its determinism:
// replicas are bitwise-consistent on every fabric, and the merge order —
// hence the bits — depends only on (P, G, k), never on goroutine or
// leader arrival order.
//
// Cost shape (netsim.Model.HierGTopK): the intra-group phase runs a FULL
// gTop-k (reduce + broadcast), so every member — not just the leader —
// holds its group's aggregate. That costs ⌈log₂G⌉ broadcast rounds the
// flat tree does not pay, and buys the leader-failure story: any member
// can stand in for a dead leader without re-running the group exchange
// (docs/ARCHITECTURE.md, "Hierarchical aggregation"). What the
// hierarchy saves is synchronization-domain size — its rounds
// synchronize G or ⌈P/G⌉ ranks instead of all P — which is worth
// nothing under the paper's pure α-β model (γ=0) and increasingly much
// under straggler skew (netsim.Model.SyncGamma), where the flat tree's
// world-sized rounds inflate with log₂P. The hierarchy bench records
// the resulting flat-vs-hierarchical crossover.

// HierarchicalGTopKAllReduce runs the two-level gTop-k over groups of
// size g, forking the group sub-communicators per call. Aggregators
// that run every iteration should hold a HierarchicalAggregator (or
// fork once themselves) instead — each call consumes a slice of the
// parent's tag space.
//
// g <= 1 or g >= P degenerates to the flat GTopKAllReduce, bit-identical
// to it. Like all collectives, every rank must call with the same g and
// k.
func HierarchicalGTopKAllReduce(ctx context.Context, comm *collective.Comm, local *sparse.Vector, k, g int) (*sparse.Vector, error) {
	out := &sparse.Vector{}
	if g <= 1 || g >= comm.Size() {
		if err := GTopKAllReduceInto(ctx, comm, local, k, ChunksFor(k), out); err != nil {
			return nil, err
		}
		return out, nil
	}
	gc, err := comm.ForkGroup(g)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchical gtopk: %w", err)
	}
	attachHierClocks(comm, gc)
	if err := HierarchicalGTopKAllReduceInto(ctx, comm, gc, local, k, ChunksFor(k), out); err != nil {
		return nil, err
	}
	foldHierStats(comm, gc)
	return out, nil
}

// attachHierClocks points the group sub-communicators at the parent's
// simulated clock and model. The three hierarchy phases run sequentially
// on each rank, so sharing the parent clock keeps the accounting
// automatic (unlike the bucketed pipeline, whose concurrent buckets need
// private clocks).
func attachHierClocks(parent *collective.Comm, gc *collective.GroupComms) {
	model, timed := parent.Model()
	if !timed {
		return
	}
	gc.Members.WithClock(parent.Clock(), model)
	if gc.Leaders != nil {
		gc.Leaders.WithClock(parent.Clock(), model)
	}
}

// foldHierStats folds the group sub-communicators' message counters into
// the parent and resets them, so per-rank totals stay complete across
// repeated collectives.
func foldHierStats(parent *collective.Comm, gc *collective.GroupComms) {
	parent.AddStats(gc.Members.Stats())
	gc.Members.ResetStats()
	if gc.Leaders != nil {
		parent.AddStats(gc.Leaders.Stats())
		gc.Leaders.ResetStats()
	}
}

// HierarchicalGTopKAllReduceInto is the reusable-state core of the
// hierarchical collective: the caller owns the forked GroupComms (with
// clocks already attached if timed) and the result vector. Statistics
// accumulate on gc's sub-communicators; fold them into the parent with
// foldHierStats-style AddStats calls, as HierarchicalAggregator does.
//
// The comm argument is the parent communicator the groups were forked
// from; it is used only for the non-leaders' simulated-time mirror of
// the leader exchange (ChargeRoundAmong), never for wire traffic.
func HierarchicalGTopKAllReduceInto(ctx context.Context, comm *collective.Comm, gc *collective.GroupComms, local *sparse.Vector, k, chunks int, out *sparse.Vector) error {
	// Phase 1: intra-group gTop-k. Every member of group i ends up with
	// the group's top-k aggregate (the full tree collective: reduce to
	// the group leader, broadcast back down).
	groupRes := sparse.GetVector()
	defer sparse.PutVector(groupRes)
	if err := GTopKAllReduceInto(ctx, gc.Members, local, k, chunks, groupRes); err != nil {
		return fmt.Errorf("core: hierarchical gtopk group phase: %w", err)
	}

	codec := gc.Members.WireCodec()
	if codec.Value().Quantized() {
		// The leader phase pins the global result to the quantizer's
		// lattice, identical bits on every leader. Re-quantizing in the
		// member-level broadcast would run each group leader's
		// INDEPENDENT stochastic rounding over those same values and
		// break cross-group bit-agreement, so phase 3 ships the pinned
		// values in lossless v3 frames instead (v3 frames are
		// self-describing — the value codec rides in every frame — so
		// receivers decode them without any extra negotiation).
		codec = sparse.CodecV3
	}
	if gc.Leaders != nil {
		// Phase 2 (leaders): gTop-k over the leader world merges the
		// per-group aggregates into the global top-k, identical bits on
		// every leader.
		glob := sparse.GetVector()
		defer sparse.PutVector(glob)
		if err := GTopKAllReduceInto(ctx, gc.Leaders, groupRes, k, chunks, glob); err != nil {
			return fmt.Errorf("core: hierarchical gtopk leader phase: %w", err)
		}
		// Phase 3: broadcast the global result down the group's binomial
		// tree (member rank 0 is the leader).
		if err := bcastSparseChunks(ctx, gc.Members, codec, glob, k, chunks, out); err != nil {
			return fmt.Errorf("core: hierarchical gtopk broadcast phase: %w", err)
		}
		return nil
	}

	// Phase 2 (non-leaders): idle in wall time while the leaders
	// exchange, but pay the same simulated rounds — the collective is
	// synchronous, so every rank's clock advances through the leader
	// phase. The modelled payload is the v1-flat 2k elements per round
	// (k values + k indices), matching what the leaders charge under the
	// v1 codec; under v2 the leaders charge measured compressed bytes
	// and this mirror stays at the modelled bound.
	leaderRounds := 2 * netsim.CeilLog2(gc.NumGroups)
	for j := 0; j < leaderRounds; j++ {
		comm.ChargeRoundAmong(gc.NumGroups, 2*k)
	}
	// Phase 3: receive the global result from the group leader.
	if err := bcastSparseChunks(ctx, gc.Members, codec, nil, k, chunks, out); err != nil {
		return fmt.Errorf("core: hierarchical gtopk broadcast phase: %w", err)
	}
	return nil
}

// HierarchicalAggregator is gTop-k S-SGD over the two-level hierarchical
// collective: local top-k selection with error feedback exactly as
// GTopKAggregator, but the global exchange runs
// HierarchicalGTopKAllReduceInto over group sub-communicators forked
// once at construction. With group >= world (or <= 1) it is
// bit-identical to GTopKAggregator.
type HierarchicalAggregator struct {
	comm      *collective.Comm
	gc        *collective.GroupComms // nil in the degenerate flat regime
	group     int
	sp        *Sparsifier
	k         int
	noPutBack bool
	schedule  func(step int) int
	step      int
	mu        float32
	velocity  []float32
	orig      []float32     // pre-transform value snapshot for FoldError (reused)
	global    sparse.Vector // reused collective result (zero steady-state allocs)
	SparseUpdate

	// quorum, when enabled (Q > 0), replaces the full-sync collectives
	// with the straggler-tolerant quorum variants (hierarchical in the
	// grouped regime, flat in the degenerate one); missStreak counts this
	// rank's consecutive missed rounds for degraded-rank reporting.
	quorum     QuorumConfig
	missStreak int
}

// NewHierarchicalAggregator creates a hierarchical gTop-k aggregator
// selecting k of dim gradients per iteration over groups of `group`
// ranks. The group sub-communicators are forked from comm here, so
// every rank must construct its aggregator at the same point of its
// collective sequence (as with any Fork).
func NewHierarchicalAggregator(comm *collective.Comm, dim, k, group int) (*HierarchicalAggregator, error) {
	if err := validateK(dim, k); err != nil {
		return nil, err
	}
	if group < 1 {
		return nil, fmt.Errorf("core: hierarchical group size %d out of range: need >= 1", group)
	}
	a := &HierarchicalAggregator{
		comm:         comm,
		group:        group,
		sp:           NewSparsifier(dim),
		k:            k,
		SparseUpdate: NewSparseUpdate(dim),
	}
	if group > 1 && group < comm.Size() {
		gc, err := comm.ForkGroup(group)
		if err != nil {
			return nil, fmt.Errorf("core: hierarchical aggregator: %w", err)
		}
		attachHierClocks(comm, gc)
		a.gc = gc
	}
	return a, nil
}

// Name implements Aggregator.
func (a *HierarchicalAggregator) Name() string { return "gtopk-hier" }

// Group returns the configured group size.
func (a *HierarchicalAggregator) Group() int { return a.group }

// SetK retunes the per-iteration selection count (warmup schedules).
func (a *HierarchicalAggregator) SetK(k int) error {
	if err := validateK(a.sp.Dim(), k); err != nil {
		return err
	}
	a.k = k
	return nil
}

// SetSchedule installs a per-step selection-count schedule; see
// TopKAggregator.SetSchedule.
func (a *HierarchicalAggregator) SetSchedule(f func(step int) int) { a.schedule = f }

// SetPutBack toggles Algorithm 4 line 10 (returning globally-dropped
// values to the residual); see GTopKAggregator.SetPutBack.
func (a *HierarchicalAggregator) SetPutBack(enabled bool) { a.noPutBack = !enabled }

// SetMomentumCorrection enables DGC-style momentum correction; see
// TopKAggregator.SetMomentumCorrection.
func (a *HierarchicalAggregator) SetMomentumCorrection(mu float32) {
	a.mu = mu
	if mu > 0 && a.velocity == nil {
		a.velocity = make([]float32, a.sp.Dim())
	}
}

// Sparsifier exposes the residual state for diagnostics.
func (a *HierarchicalAggregator) Sparsifier() *Sparsifier { return a.sp }

// SetQuorum enables the straggler-tolerant quorum collectives: rounds
// close per level after the configured quorums or deadline budgets
// (never under quorum), and a missed rank's selected mass — a straggling
// member's, or every member's of a group that missed the leader round —
// is refunded to its residual instead of entering the round. In the
// grouped regime cfg.Q is the intra-group quorum and cfg.LeaderQ the
// leader-level one; in the degenerate flat regime (group <= 1 or >=
// world) cfg must be a flat configuration validated against the world.
// A zero cfg disables quorum mode.
func (a *HierarchicalAggregator) SetQuorum(cfg QuorumConfig) error {
	if cfg == (QuorumConfig{}) {
		a.quorum = cfg
		return nil
	}
	var err error
	if a.gc == nil {
		err = cfg.Validate(a.comm.Size())
	} else {
		err = cfg.ValidateHier(a.comm.Size(), a.group)
	}
	if err != nil {
		return err
	}
	a.quorum = cfg
	return nil
}

// QuorumMissStreak returns how many consecutive rounds this rank's
// contribution has missed a quorum deadline (0 when participating or
// when quorum mode is off) — the signal the cluster runtime turns into
// degraded-rank reports; with group-granular telemetry a whole missed
// group shows up as every one of its members streaking together.
func (a *HierarchicalAggregator) QuorumMissStreak() int { return a.missStreak }

// QuorumGroup returns this rank's hierarchy group index in the grouped
// regime and -1 in the degenerate flat one — the group-granular handle
// degraded-rank telemetry attaches to its reports.
func (a *HierarchicalAggregator) QuorumGroup() int {
	if a.gc == nil {
		return -1
	}
	return a.comm.Rank() / a.group
}

// Aggregate implements Aggregator.
func (a *HierarchicalAggregator) Aggregate(ctx context.Context, grad []float32) ([]float32, error) {
	if a.schedule != nil {
		if err := a.SetK(a.schedule(a.step)); err != nil {
			return nil, fmt.Errorf("core: hierarchical schedule: %w", err)
		}
	}
	a.step++
	grad = applyMomentumCorrection(a.mu, a.velocity, grad)
	local, err := a.sp.Select(grad, a.k)
	if err != nil {
		return nil, fmt.Errorf("core: hierarchical aggregate: %w", err)
	}
	if a.quorum.Q > 0 {
		// Quorum mode always snapshots the pre-transform values: a round
		// this rank misses refunds the FULL selected mass, not just the
		// codec error.
		a.orig = append(a.orig[:0], local.Values...)
	} else {
		a.orig = snapshotForFold(a.comm.WireCodec(), local, a.orig)
	}
	participated := true
	switch {
	case a.gc == nil && a.quorum.Q > 0:
		participated, _, err = QuorumGTopKAllReduceInto(ctx, a.comm, local, a.k, a.quorum, &a.global)
	case a.gc == nil:
		err = GTopKAllReduceInto(ctx, a.comm, local, a.k, ChunksFor(a.k), &a.global)
	case a.quorum.Q > 0:
		participated, _, err = HierQuorumGTopKAllReduceInto(ctx, a.comm, a.gc, local, a.k, a.group, a.quorum, &a.global)
	default:
		err = HierarchicalGTopKAllReduceInto(ctx, a.comm, a.gc, local, a.k, ChunksFor(a.k), &a.global)
	}
	if err != nil {
		return nil, err
	}
	if a.gc != nil {
		foldHierStats(a.comm, a.gc)
	}
	global := &a.global
	if !participated {
		// This rank's frame missed its level's quorum — or its whole
		// group missed the leader level: nothing of it entered the
		// aggregate, so the full selected mass is refunded to the
		// residual (conservation) and put-back is skipped — the update
		// below is built purely from the other ranks' verdict.
		a.missStreak++
		a.sp.Refund(local.Indices, a.orig)
	} else {
		a.missStreak = 0
		// Quantization error first, then put-back — see GTopKAggregator.
		// (In quorum mode the snapshot exists for every codec, but the
		// fold only applies where the wire transform was lossy.)
		codec := a.comm.WireCodec()
		if a.orig != nil && (a.quorum.Q == 0 || (codec.WireVersion() == 3 && codec.Lossy())) {
			a.sp.FoldError(local.Indices, a.orig, local.Values)
		}
		if !a.noPutBack {
			a.sp.PutBack(local, global.Indices)
		}
	}
	return a.Densify(global, 1/float32(a.comm.Size())), nil
}
