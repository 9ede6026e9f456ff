package core

import (
	"context"
	"fmt"
)

// PipelinedTrainer implements the paper's Section VII future-work idea —
// hiding communication behind computation — with one-step-stale updates:
// while iteration t+1's gradient is being computed, iteration t's
// gradient is aggregated concurrently, and its update is applied just
// before the NEXT forward pass.
//
// Semantics: weights_t+1 = weights_t − η·v_t where v_t uses the update
// aggregated from the gradient computed at weights_{t−1}. This is the
// classic one-step-stale pipeline; convergence degrades only marginally
// for small learning rates (asserted by the tests) while the modelled
// iteration time drops from (compute + comm) to max(compute, comm) —
// quantified analytically by the ablation-pipeline experiment.
//
// Replica consistency is preserved: every rank applies the same updates
// in the same order, just one step later than the synchronous trainer.
type PipelinedTrainer struct {
	tr       *Trainer  // configuration, weights, momentum and the gradient gradFn writes
	sent     []float32 // the gradient the in-flight aggregation reads
	inflight bool
	resultCh chan aggResult
}

type aggResult struct {
	update []float32 // the aggregator's buffer, valid until its next Aggregate
	err    error
}

// NewPipelinedTrainer assembles a pipelined trainer with the same
// contract as NewTrainer.
func NewPipelinedTrainer(cfg TrainConfig, agg Aggregator, weights []float32, gradFn GradFn) (*PipelinedTrainer, error) {
	tr, err := NewTrainer(cfg, agg, weights, gradFn)
	if err != nil {
		return nil, err
	}
	return &PipelinedTrainer{tr: tr, sent: make([]float32, len(weights)), resultCh: make(chan aggResult, 1)}, nil
}

// Weights exposes the current parameters.
func (t *PipelinedTrainer) Weights() []float32 { return t.tr.weights }

// Iter returns the number of gradient computations so far.
func (t *PipelinedTrainer) Iter() int { return t.tr.iter }

// Step computes this iteration's gradient, applies the PREVIOUS
// iteration's aggregated update (if any), and launches this gradient's
// aggregation in the background. Returns the local mini-batch loss.
func (t *PipelinedTrainer) Step(ctx context.Context) (float64, error) {
	tr := t.tr
	clear(tr.grad)
	loss := tr.gradFn(tr.iter, tr.weights, tr.grad)

	// Overlap point: the previous aggregation ran while gradFn computed.
	if t.inflight {
		if err := t.applyPending(); err != nil {
			return 0, fmt.Errorf("core: pipelined step %d: %w", tr.iter, err)
		}
	}

	// The one aggregation in flight has returned, so the gradient buffers
	// swap: the aggregator reads this gradient while the next gradFn call
	// writes the other buffer.
	tr.grad, t.sent = t.sent, tr.grad
	t.inflight = true
	go func(grad []float32) {
		update, err := tr.agg.Aggregate(ctx, grad)
		t.resultCh <- aggResult{update: update, err: err}
	}(t.sent)

	tr.iter++
	return loss, nil
}

// Flush waits for the in-flight aggregation and applies it. Call once
// after the final Step so the last gradient is not lost.
func (t *PipelinedTrainer) Flush() error {
	if !t.inflight {
		return nil
	}
	return t.applyPending()
}

// applyPending applies the aggregator's own buffer in place: its next
// Aggregate starts only after this returns.
func (t *PipelinedTrainer) applyPending() error {
	res := <-t.resultCh
	t.inflight = false
	if res.err != nil {
		return res.err
	}
	t.tr.cfg.apply(t.tr.weights, t.tr.velocity, res.update, updateSupport(t.tr.agg))
	return nil
}
