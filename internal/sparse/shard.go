package sparse

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// This file is the parallel sharded selection engine: the paper's
// T_sparsify term is a dense top-k over the full residual every
// iteration, which the serial path runs on one goroutine no matter how
// many cores the worker has. The engine splits the dense vector into
// contiguous per-core shards, runs the serial accumulate-and-select
// kernel (AccumulateTopKInto) per shard concurrently, and merges the
// shard winners into the EXACT global top-k — bit-identical to the
// serial selection for every shard count. Each shard adds its own range
// of the gradient into its own range of the residual, so the
// error-feedback add runs in parallel too.
//
// Why the merge is exact: any entry of the global top-k is, within its
// shard, among that shard's top-k under the same (magnitude desc, index
// asc) priority — if a shard's tie-quota dropped it, the shard already
// holds k entries that all outrank it globally, contradicting its global
// selection. A shard shorter than k contributes every entry (zeros
// included: with a zero global threshold they are legal tie-fillers).
// The union of shard winners therefore contains the global top-k, and
// re-selecting k of the union — candidates concatenate in ascending
// index order, so TopKSparseInto applies the identical tie rule — yields
// exactly the serial result.

// minShardElems is the smallest per-shard span worth a goroutine: below
// this the handoff costs more than the parallel selection saves, so
// the engine degrades toward fewer (or one) shards. Results never depend
// on the effective shard count.
const minShardElems = 1 << 15

// ShardSelector runs exact dense top-k selection over per-core shards.
// A selector owns reusable per-shard scratch; it is NOT safe for
// concurrent use (one selector per goroutine — e.g. per bucket of the
// bucketed pipeline), though independent selectors may run concurrently.
type ShardSelector struct {
	shards  int
	parts   []Vector
	scratch []SelectScratch // per-shard; the serial path uses shard 0's
	cand    Vector          // merge input

	// The current call's operands, shared by its shard jobs.
	acc, grad []float32
	k, active int
	wg        sync.WaitGroup

	timed      bool
	sequential bool
	shardDur   []time.Duration
	mergeDur   time.Duration
}

// shardJob names one shard of a selector's current call.
type shardJob struct {
	s *ShardSelector
	i int
}

// shardJobs hands shard jobs to the goroutines started for them. A go
// statement whose function captures nothing needs no heap closure, so
// each started goroutine receives its job here and the concurrent path
// allocates nothing. One goroutine starts per job sent, so every send
// finds a receiver.
var shardJobs = make(chan shardJob)

func runShardJob() {
	j := <-shardJobs
	j.s.runShard(j.i)
	j.s.wg.Done()
}

// NewShardSelector creates a selector with the given shard count;
// shards < 1 selects GOMAXPROCS (one shard per schedulable core).
func NewShardSelector(shards int) *ShardSelector {
	if shards < 1 {
		shards = runtime.GOMAXPROCS(0)
	}
	return &ShardSelector{
		shards:   shards,
		parts:    make([]Vector, shards),
		scratch:  make([]SelectScratch, shards),
		shardDur: make([]time.Duration, shards),
	}
}

// Shards returns the configured shard count.
func (s *ShardSelector) Shards() int { return s.shards }

// SetTimed toggles per-shard wall-clock instrumentation (see Timings).
// Off by default; the two time.Now calls per shard are negligible next
// to a millisecond-scale select but pure overhead for tiny inputs.
func (s *ShardSelector) SetTimed(on bool) { s.timed = on }

// SetSequential makes TopKInto run its shards one after another in the
// calling goroutine instead of concurrently. The result is identical;
// the point is measurement: on a machine with fewer cores than shards,
// concurrent shards time-slice the cores and each shard's wall clock
// absorbs its neighbours' work, whereas sequential execution times every
// shard in isolation — which is what makes Timings' critical path an
// honest model of the multicore wall time. The bench harness uses it;
// production selection stays concurrent.
func (s *ShardSelector) SetSequential(on bool) { s.sequential = on }

// Timings reports the last timed TopKInto: one duration per shard's
// selection plus the serial merge. max(perShard)+merge is the critical
// path — the wall time of the call given at least Shards() cores
// (measure under SetSequential on machines with fewer cores; see
// there). Valid only after a TopKInto with SetTimed(true); the slice is
// reused.
func (s *ShardSelector) Timings() (perShard []time.Duration, merge time.Duration) {
	return s.shardDur[:], s.mergeDur
}

// TopK is TopKInto into a fresh vector.
func (s *ShardSelector) TopK(x []float32, k int) *Vector {
	out := &Vector{}
	s.TopKInto(out, x, k)
	return out
}

// TopKInto writes the k largest-magnitude entries of x into dst —
// bit-identical to sparse.TopKInto(dst, x, k) for every shard count.
func (s *ShardSelector) TopKInto(dst *Vector, x []float32, k int) {
	s.AccumulateTopKInto(dst, x, nil, k)
}

// AccumulateTopKInto is the sharded AccumulateTopKInto: it adds grad
// into acc and writes the k largest-magnitude entries of the sum into
// dst, bit-identical to the serial kernel for every shard count. Each
// shard adds and selects its own contiguous range; grad nil adds
// nothing.
func (s *ShardSelector) AccumulateTopKInto(dst *Vector, acc, grad []float32, k int) {
	n := len(acc)
	if grad != nil && len(grad) != n {
		panic(fmt.Sprintf("sparse: AccumulateTopKInto over %d-element residual with %d-element gradient", n, len(grad)))
	}
	shards := s.shards
	if max := n / minShardElems; shards > max {
		shards = max
	}
	if shards <= 1 || k <= 0 || k >= n {
		var start time.Time
		if s.timed {
			start = time.Now()
		}
		AccumulateTopKInto(dst, &s.scratch[0], acc, grad, k)
		if s.timed {
			s.shardDur = s.shardDur[:1]
			s.shardDur[0] = time.Since(start)
			s.mergeDur = 0
		}
		return
	}
	if s.timed {
		s.shardDur = s.shardDur[:shards]
	}

	s.acc, s.grad, s.k, s.active = acc, grad, k, shards
	if s.sequential {
		for i := 0; i < shards; i++ {
			s.runShard(i)
		}
	} else {
		// Shard 0 runs in the calling goroutine.
		s.wg.Add(shards - 1)
		for i := 1; i < shards; i++ {
			go runShardJob()
			shardJobs <- shardJob{s, i}
		}
		s.runShard(0)
		s.wg.Wait()
	}
	s.acc, s.grad = nil, nil

	var start time.Time
	if s.timed {
		start = time.Now()
	}
	// Concatenate shard winners — ascending within each shard, shards in
	// index order, so the union is globally ascending — and re-select.
	total := 0
	for i := 0; i < shards; i++ {
		total += s.parts[i].NNZ()
	}
	ensureVec(&s.cand, total)
	s.cand.Dim = n
	o := 0
	for i := 0; i < shards; i++ {
		o += copy(s.cand.Indices[o:], s.parts[i].Indices)
	}
	o = 0
	for i := 0; i < shards; i++ {
		o += copy(s.cand.Values[o:], s.parts[i].Values)
	}
	TopKSparseInto(dst, &s.cand, k)
	if s.timed {
		s.mergeDur = time.Since(start)
	}
}

// runShard adds shard i's range of grad into acc and selects the
// range's candidates with the serial kernel, indices rebased to the
// global space.
func (s *ShardSelector) runShard(i int) {
	acc, grad, k := s.acc, s.grad, s.k
	lo, hi := i*len(acc)/s.active, (i+1)*len(acc)/s.active
	var start time.Time
	if s.timed {
		start = time.Now()
	}
	part := &s.parts[i]
	var g []float32
	if grad != nil {
		g = grad[lo:hi]
	}
	if shardLen := hi - lo; k >= shardLen {
		// Short shard: every entry is a candidate, zeros included
		// (they can fill a zero-threshold global tie quota).
		addInto(acc[lo:hi], g)
		ensureVec(part, shardLen)
		for j := 0; j < shardLen; j++ {
			part.Indices[j] = int32(lo + j)
			part.Values[j] = acc[lo+j]
		}
	} else {
		AccumulateTopKInto(part, &s.scratch[i], acc[lo:hi], g, k)
		for j := range part.Indices {
			part.Indices[j] += int32(lo)
		}
	}
	part.Dim = len(acc)
	if s.timed {
		s.shardDur[i] = time.Since(start)
	}
}
