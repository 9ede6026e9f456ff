package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/transport"
)

// runConfig describes one set of ranks training one workload.
type runConfig struct {
	w       workload
	seed    uint64
	workers int
	// traced wraps every endpoint in a tracedConn, installs the phase
	// hook and prices every round on a netsim clock.
	traced bool
	// perturb, when non-nil, runs on every rank after each of its steps
	// with the rank's live weights; tests use it to break a replica.
	perturb func(rank, step int, weights []float32)
}

// cluster is one built set of ranks: the fabric, and per rank its
// communicator, trainer and (traced runs) span buffer and clock.
type cluster struct {
	cfg      runConfig
	fabric   transport.Fabric // nil for a single worker
	comms    []*collective.Comm
	trainers []*core.Trainer
	traces   []*rankTrace
	clocks   []netsim.Clock
	epoch    time.Time
}

// identityAggregator is the plain single-worker baseline: the local
// gradient is the update, with no selection and no exchange.
type identityAggregator struct{}

func (identityAggregator) Aggregate(_ context.Context, grad []float32) ([]float32, error) {
	return grad, nil
}
func (identityAggregator) Name() string { return "local" }

// build creates the fabric and every rank's model and trainer. traceSteps
// sizes the span buffers of a traced run.
func (rc runConfig) build(traceSteps int) (*cluster, error) {
	c := &cluster{
		cfg:      rc,
		comms:    make([]*collective.Comm, rc.workers),
		trainers: make([]*core.Trainer, rc.workers),
		clocks:   make([]netsim.Clock, rc.workers),
		epoch:    time.Now(),
	}
	ds, err := rc.w.newDataset(rc.seed)
	if err != nil {
		return nil, err
	}
	if rc.workers > 1 {
		if rc.w.tcp {
			c.fabric, err = transport.NewTCP(rc.workers)
		} else {
			c.fabric, err = transport.NewInProc(rc.workers)
		}
		if err != nil {
			return nil, fmt.Errorf("fabric: %w", err)
		}
	}
	if rc.traced {
		c.traces = make([]*rankTrace, rc.workers)
		for r := range c.traces {
			c.traces[r] = newRankTrace(r, c.epoch, traceSteps)
		}
	}
	errs := make([]error, rc.workers)
	var wg sync.WaitGroup
	for r := 0; r < rc.workers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = c.buildRank(ds, r)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			c.close()
			return nil, fmt.Errorf("rank %d setup: %w", r, err)
		}
	}
	return c, nil
}

func (c *cluster) buildRank(ds *data.Images, r int) error {
	w := c.cfg.w
	rep := w.newReplica(ds, c.cfg.seed, r, c.cfg.workers)
	cfg := w.cfg
	var agg core.Aggregator = identityAggregator{}
	if c.fabric != nil {
		conn := c.fabric.Conn(r)
		if w.link != nil {
			conn = &linkConn{Conn: conn, model: *w.link}
		}
		if c.traces != nil {
			conn = &tracedConn{Conn: conn, rec: c.traces[r]}
		}
		comm := collective.New(conn)
		if c.traces != nil {
			comm.WithClock(&c.clocks[r], netsim.Paper1GbE())
		}
		c.comms[r] = comm
		dim := len(rep.weights)
		g, err := core.NewGTopKAggregator(comm, dim, core.DensityToK(dim, w.density))
		if err != nil {
			return err
		}
		if w.momentumCorrection {
			g.SetMomentumCorrection(cfg.Momentum)
			cfg.Momentum = 0
		}
		agg = g
	}
	tr, err := core.NewTrainer(cfg, agg, rep.weights, rep.gradFn)
	if err != nil {
		return err
	}
	if c.traces != nil {
		tr.SetPhaseHook(c.traces[r].phases)
	}
	c.trainers[r] = tr
	return nil
}

func (c *cluster) close() {
	if c.fabric != nil {
		c.fabric.Close() //nolint:errcheck // teardown; every step has already returned
	}
}

// phase is the outcome of running steps [first, first+n) on every rank.
type phase struct {
	stepNs []int64   // rank 0's step durations
	allocB []int64   // process heap bytes allocated during rank 0's steps
	loss   []float64 // rank 0's losses
	bad    []bool    // step failed on some rank: error or non-finite loss
	err    error     // first rank error, if any
	wall   time.Duration
}

// run drives every rank through n synchronous steps in a closed loop:
// each rank starts its next step only when its last one returned.
func (c *cluster) run(ctx context.Context, first, n int) phase {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	p := phase{stepNs: make([]int64, n), allocB: make([]int64, n), loss: make([]float64, n), bad: make([]bool, n)}
	bad := make([][]bool, c.cfg.workers)
	errs := make([]error, c.cfg.workers)
	var wg sync.WaitGroup
	start := time.Now()
	for r := range c.trainers {
		bad[r] = make([]bool, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, rec := c.trainers[r], (*rankTrace)(nil)
			if c.traces != nil {
				rec = c.traces[r]
			}
			allocs := []runtimemetrics.Sample{{Name: allocsMetric}}
			for i := 0; i < n; i++ {
				if rec != nil {
					rec.beginStep(first + i)
				}
				if r == 0 {
					runtimemetrics.Read(allocs)
					p.allocB[i] = -int64(allocs[0].Value.Uint64())
				}
				t0 := time.Now()
				loss, err := tr.Step(ctx)
				d := time.Since(t0)
				if r == 0 {
					runtimemetrics.Read(allocs)
					p.allocB[i] += int64(allocs[0].Value.Uint64())
				}
				if rec != nil {
					rec.endStep(err)
				}
				if err != nil {
					// A failed rank leaves its peers blocked in the
					// collective; cancelling releases them, and every
					// step from here on counts as failed.
					errs[r] = err
					cancel()
					for j := i; j < n; j++ {
						bad[r][j] = true
					}
					return
				}
				bad[r][i] = !finite(loss)
				if r == 0 {
					p.stepNs[i], p.loss[i] = int64(d), loss
				}
				if c.cfg.perturb != nil {
					c.cfg.perturb(r, first+i, tr.Weights())
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	for r := range bad {
		for i, b := range bad[r] {
			p.bad[i] = p.bad[i] || b
		}
		if p.err == nil && errs[r] != nil {
			p.err = fmt.Errorf("rank %d: %w", r, errs[r])
		}
	}
	return p
}

// weightDigests returns a SHA-256 of every rank's weight bits.
func (c *cluster) weightDigests() [][32]byte {
	out := make([][32]byte, len(c.trainers))
	buf := make([]byte, 0, 64<<10)
	for r, tr := range c.trainers {
		h := sha256.New()
		for _, v := range tr.Weights() {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			if len(buf) == cap(buf) {
				h.Write(buf)
				buf = buf[:0]
			}
		}
		h.Write(buf)
		buf = buf[:0]
		copy(out[r][:], h.Sum(nil))
	}
	return out
}

// commTotals sums the communication counters over ranks.
func (c *cluster) commTotals() collective.Stats {
	var s collective.Stats
	for _, comm := range c.comms {
		if comm == nil {
			continue
		}
		cs := comm.Stats()
		s.MsgsSent += cs.MsgsSent
		s.BytesSent += cs.BytesSent
		s.Rounds += cs.Rounds
	}
	return s
}

// allocsMetric counts the bytes the process has allocated on the heap.
const allocsMetric = "/gc/heap/allocs:bytes"

// runtimeSnap is a reading of the Go runtime's process-wide counters.
type runtimeSnap struct {
	allocBytes, gcCycles, gcPauseNs uint64
}

func readRuntime() runtimeSnap {
	samples := []runtimemetrics.Sample{{Name: allocsMetric}, {Name: "/gc/cycles/total:gc-cycles"}}
	runtimemetrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{allocBytes: samples[0].Value.Uint64(), gcCycles: samples[1].Value.Uint64(), gcPauseNs: ms.PauseTotalNs}
}

// session is one built cluster under measurement: its set-up times and
// the records of its timed steps, run in blocks.
type session struct {
	c        *cluster
	setupNs  []int64
	warmStep time.Duration // one step, estimated from the warm-up
	next     int           // steps run so far, warm-up included

	stepNs   []int64   // rank 0's timed step durations
	allocB   []int64   // heap bytes allocated during rank 0's timed steps
	loss     []float64 // rank 0's timed losses
	bad      []bool    // timed steps that failed on some rank
	blocks   []float64 // steps per second of each timed block
	comm     collective.Stats
	runtime  runtimeSnap
	modelled time.Duration // rank 0's netsim clock over the timed steps
	err      error

	digests [][32]byte // final weights per rank, set by finish
}

// start builds rc's ranks rc.w.setups times, keeping the last build, and
// runs the warm-up steps. traceSteps sizes a traced run's span buffers.
func (rc runConfig) start(ctx context.Context, traceSteps int) (*session, error) {
	s := &session{}
	for i := 0; i < max(rc.w.setups, 1); i++ {
		if s.c != nil {
			s.c.close()
			s.c = nil
			runtime.GC()
		}
		t0 := time.Now()
		c, err := rc.build(rc.w.warmup + traceSteps)
		if err != nil {
			return nil, err
		}
		s.c = c
		s.setupNs = append(s.setupNs, int64(time.Since(t0)))
	}
	warm := s.c.run(ctx, 0, rc.w.warmup)
	if warm.err != nil {
		s.c.close()
		return nil, fmt.Errorf("warm-up: %w", warm.err)
	}
	s.next = rc.w.warmup
	// The second half of the warm-up, after pools and residuals settle.
	s.warmStep = time.Duration(median(warm.stepNs[len(warm.stepNs)/2:]))
	return s, nil
}

// block runs n timed steps on every rank, adds their records and returns
// the block's wall time. After a failed step the ranks may disagree on
// where the collective stands, so later blocks are not run and count as
// failed.
func (s *session) block(ctx context.Context, n int) time.Duration {
	if s.err != nil {
		s.stepNs = append(s.stepNs, make([]int64, n)...)
		s.allocB = append(s.allocB, make([]int64, n)...)
		s.loss = append(s.loss, make([]float64, n)...)
		for i := 0; i < n; i++ {
			s.bad = append(s.bad, true)
		}
		return 0
	}
	c := s.c
	comm0, clock0 := c.commTotals(), c.clocks[0].Now()
	rt0 := readRuntime()
	p := c.run(ctx, s.next, n)
	rt1 := readRuntime()
	comm1 := c.commTotals()
	s.comm.MsgsSent += comm1.MsgsSent - comm0.MsgsSent
	s.comm.BytesSent += comm1.BytesSent - comm0.BytesSent
	s.comm.Rounds += comm1.Rounds - comm0.Rounds
	s.runtime.allocBytes += rt1.allocBytes - rt0.allocBytes
	s.runtime.gcCycles += rt1.gcCycles - rt0.gcCycles
	s.runtime.gcPauseNs += rt1.gcPauseNs - rt0.gcPauseNs
	s.modelled += c.clocks[0].Now() - clock0
	s.stepNs = append(s.stepNs, p.stepNs...)
	s.allocB = append(s.allocB, p.allocB...)
	s.loss = append(s.loss, p.loss...)
	s.bad = append(s.bad, p.bad...)
	s.blocks = append(s.blocks, float64(n)/p.wall.Seconds())
	s.next += n
	s.err = p.err
	return p.wall
}

// finish records the final weights' digests and releases the fabric.
func (s *session) finish() {
	s.digests = s.c.weightDigests()
	s.c.close()
}

func (s *session) steps() int { return len(s.stepNs) }

// wirePerStep is the payload bytes one rank sent per timed step,
// averaged over ranks.
func (s *session) wirePerStep() float64 {
	return float64(s.comm.BytesSent) / float64(s.c.cfg.workers*s.steps())
}

func (s *session) replicasAgree() bool {
	for _, d := range s.digests[1:] {
		if d != s.digests[0] {
			return false
		}
	}
	return true
}

// failed counts timed steps that failed; a run whose replicas ended with
// different weights fails every step, since its updates were not the
// agreed ones.
func (s *session) failed() int {
	if !s.replicasAgree() {
		return s.steps()
	}
	n := 0
	for _, b := range s.bad {
		if b {
			n++
		}
	}
	return n
}

// layers folds a traced session's spans into per-rank, per-step layer
// times for its timed steps.
func (s *session) layers() [][]stepLayers {
	var out [][]stepLayers
	for _, t := range s.c.traces {
		out = append(out, t.perStep(s.c.cfg.w.warmup, s.steps()))
	}
	return out
}

// timedBlocks is how many blocks a timed phase is cut into; throughput
// is the median over blocks, so a burst of load from outside the
// process moves one block, not the result.
const timedBlocks = 16

// pacer sizes the blocks of a timed phase so that the phase fills its
// budget: each block gets an equal share of the time left, at the step
// time the last block (or the warm-up) ran at.
type pacer struct {
	left  time.Duration
	step  time.Duration
	sizes []int // steps of every block so far
}

func newPacer(budget, step time.Duration) *pacer { return &pacer{left: budget, step: step} }

// next returns the size of the next block, at least enough for
// minTimedSteps steps over all blocks.
func (p *pacer) next() int {
	share := p.left / time.Duration(timedBlocks-len(p.sizes))
	n := max(int(share/max(p.step, 1)), (minTimedSteps+timedBlocks-1)/timedBlocks)
	p.sizes = append(p.sizes, n)
	return n
}

// ran records the wall time of the block next sized.
func (p *pacer) ran(wall time.Duration) {
	p.left -= wall
	if n := p.sizes[len(p.sizes)-1]; wall > 0 {
		p.step = wall / time.Duration(n)
	}
}

// minTimedSteps keeps more than ten steps beyond any tail percentile.
const minTimedSteps = 40
