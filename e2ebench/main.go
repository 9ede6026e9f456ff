// Command e2ebench is the repository's end-to-end benchmark: whole
// synchronous gTop-k S-SGD iterations through core.Trainer.Step over
// core.GTopKAggregator, a collective.Comm and an in-process or loopback
// TCP fabric, with P=2 ranks as goroutines of one process in a closed
// loop (each rank starts step i+1 only when step i's aggregate returned).
//
//	e2ebench --workload agg-4m --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced for the same number of steps,
// prints the per-layer metrics measured from outside each layer, and
// checks that both runs end with bit-identical weights. Every metric is
// printed by name with its unit; the last line is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"gtopkssgd/internal/core"
	"gtopkssgd/internal/sparse"
)

// processDeadline keeps a run, hung collectives included, inside the
// three minutes a benchmark invocation may take.
const processDeadline = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload: train-vgg16, agg-4m or warmup-1gbe")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "seconds of timed steps")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		spans   = flag.String("spans", "", "directory for the traced run's span file (empty: not written)")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*traced != 0 && *traced != 1) {
		err = fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}
	if err == nil && (*seconds <= 0 || *seconds > 120) {
		err = fmt.Errorf("--seconds %v: want (0, 120]", *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), processDeadline)
	defer cancel()

	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *traced == 1 {
		rep, err = runTraced(ctx, w, *seed, budget, *spans)
	} else {
		rep, err = runEndToEnd(ctx, w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// stamp describes the machine and the load, for every result.
func stamp(w workload) map[string]any {
	link := "none"
	if w.link != nil {
		link = fmt.Sprintf("emulated-link alpha=%v beta=%v/elem (netsim.Paper1GbE)", w.link.Alpha, w.link.Beta)
	}
	fabric := "inproc"
	if w.tcp {
		fabric = "tcp-loopback"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"go":         runtime.Version(),
		"kernels":    sparse.Kernels(),
		"load":       "closed loop, P=2 goroutine ranks",
		"fabric":     fabric,
		"link":       link,
		"params":     w.paramCount(),
		"k":          w.k(),
		"chunks":     core.ChunksFor(w.k()),
	}
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type check struct {
	name string
	ok   bool
	note string
}

// report is everything one invocation prints.
type report struct {
	w         workload
	seed      uint64
	attempted int
	failed    int
	metrics   []metric
	checks    []check
	notes     []string
}

func (r *report) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// label says where a figure comes from: measured on this machine,
// measured behind the emulated link, or computed by the α-β model.
func (r *report) label(name string) string {
	if strings.HasPrefix(name, "netsim.") {
		return "modelled"
	}
	if r.w.link != nil {
		return "emulated-link"
	}
	return "measured"
}

func (r *report) print(out *os.File) {
	fmt.Fprintf(out, "e2ebench workload=%s seed=%d\n", r.w.name, r.seed)
	st, _ := json.Marshal(stamp(r.w))
	fmt.Fprintf(out, "stamp %s\n", st)
	for _, m := range r.metrics {
		line := fmt.Sprintf("metric %-34s %14s %-6s [%s]", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit, r.label(m.name))
		if m.note != "" {
			line += " " + m.note
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "metric %-34s %14s %-6s [%s] failed %d of %d steps\n", "step_fail_ratio",
		strconv.FormatFloat(float64(r.failed)/float64(max(r.attempted, 1)), 'g', 8, 64), "ratio", r.label(""), r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(out, "note", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(out, "check %-28s %s %s\n", c.name, status, c.note)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(r.attempted, 1), r.failed, ms})
	fmt.Fprintln(out, string(line))
}

// runEndToEnd measures the P=2 run untraced, in blocks that alternate
// with blocks of a plain single-worker run of the same model, so the
// scaling efficiency compares the two under the same machine load.
func runEndToEnd(ctx context.Context, w workload, seed uint64, budget time.Duration) (*report, error) {
	rep := &report{w: w, seed: seed}
	rc := runConfig{w: w, seed: seed, workers: 2}
	m, err := rc.start(ctx, 0)
	if err != nil {
		return nil, err
	}
	single := rc
	single.workers = 1
	single.w.setups = 1
	b, err := single.start(ctx, 0)
	if err != nil {
		m.c.close()
		return nil, err
	}
	pm, pb := newPacer(budget*4/5, m.warmStep), newPacer(budget/5, b.warmStep)
	ratios := make([]float64, timedBlocks)
	for i := range ratios {
		pm.ran(m.block(ctx, pm.next()))
		pb.ran(b.block(ctx, pb.next()))
		ratios[i] = m.blocks[i] / b.blocks[i]
	}
	m.finish()
	b.finish()
	rep.attempted = m.steps() + b.steps()
	rep.failed = m.failed() + b.failed()

	sps := median(m.blocks)
	rep.add("steps_per_s", sps, "1/s", fmt.Sprintf("median of %d blocks, %d steps in all, range %.4g..%.4g", timedBlocks, m.steps(), slices.Min(m.blocks), slices.Max(m.blocks)))
	rep.add("step_ms_p50", median(m.stepNs)/1e6, "ms", "")
	tail, pct, tb := stepTail(m.stepNs)
	rep.add("step_ms_tail", tail, "ms", fmt.Sprintf("p%.1f, 10 steps beyond it, in each of %d blocks of %d steps; median over blocks", pct, tb, m.steps()/tb))
	rep.add("wire_bytes_per_step", m.wirePerStep(), "B", "")
	rep.add("loss_final", mean(m.loss), "loss", "")
	rep.add("scaling_eff", median(ratios), "ratio", fmt.Sprintf("median over blocks of P=2 steps/s over single-worker steps/s (%.4g)", median(b.blocks)))
	rep.add("setup_s", median(m.setupNs)/1e9, "s", fmt.Sprintf("median of %d set-ups", len(m.setupNs)))
	rep.add("peak_rss_mb", peakRSSMiB(), "MiB", "")
	rep.add("alloc_bytes_per_step", median(m.allocB), "B", fmt.Sprintf("median over steps; mean %.6g", float64(m.runtime.allocBytes)/float64(m.steps())))

	checkRun(rep, "P=2", m)
	rep.check("single_worker_loss_finite", b.failed() == 0, "%d of %d steps failed", b.failed(), b.steps())
	return rep, nil
}

// checkRun applies the per-run correctness checks: replicas bit-identical
// (the Aggregator contract), finite losses, and wire bytes equal to what
// the flat tree's ChunksFor(k) v1 frames predict.
func checkRun(rep *report, what string, m *session) {
	rep.check("replicas_bit_identical", m.replicasAgree(), "%s final weights of %d ranks", what, len(m.digests))
	bad := 0
	for _, b := range m.bad {
		if b {
			bad++
		}
	}
	rep.check("loss_finite", bad == 0, "%s %d of %d steps with an error or non-finite loss", what, bad, m.steps())
	wire, want := m.wirePerStep(), predictedWireBytes(m.c.cfg.workers, rep.w.k())
	rep.check("wire_bytes_per_step", wire == want, "%s measured %.1f, predicted %.1f", what, wire, want)
}

// predictedWireBytes is the payload one rank sends per flat gTop-k step,
// averaged over p ranks: 2(p−1) tree messages of k entries, each split
// into ChunksFor(k) v1 frames.
func predictedWireBytes(p, k int) float64 {
	c := core.ChunksFor(k)
	msg := 0
	for i := 0; i < c; i++ {
		msg += sparse.EncodedSize((i+1)*k/c - i*k/c)
	}
	return float64(2*(p-1)*msg) / float64(p)
}

// runTraced runs the workload untraced and then traced for the same
// number of steps, and reports the per-layer metrics of the traced run.
func runTraced(ctx context.Context, w workload, seed uint64, budget time.Duration, spansDir string) (*report, error) {
	rep := &report{w: w, seed: seed}
	plain := runConfig{w: w, seed: seed, workers: 2}
	plain.w.setups = 1
	u, err := plain.start(ctx, 0)
	if err != nil {
		return nil, err
	}
	pu := newPacer(budget/2, u.warmStep)
	for i := 0; i < timedBlocks; i++ {
		pu.ran(u.block(ctx, pu.next()))
	}
	u.finish()
	tracedCfg := plain
	tracedCfg.traced = true
	t, err := tracedCfg.start(ctx, u.steps())
	if err != nil {
		return nil, err
	}
	for _, n := range pu.sizes {
		t.block(ctx, n)
	}
	t.finish()
	rep.attempted = u.steps() + t.steps()
	rep.failed = u.failed() + t.failed()

	wireU, wireT := u.wirePerStep(), t.wirePerStep()
	checkRun(rep, "traced", t)
	same := true
	for r := range u.digests {
		same = same && u.digests[r] == t.digests[r]
	}
	rep.check("traced_equals_untraced", same && wireU == wireT, "final weights bit-identical %v after %d+%d steps; wire bytes/step %.1f vs %.1f", same, w.warmup, t.steps(), wireU, wireT)

	layers := t.layers()
	layers0 := layers[0]
	n := len(layers0)
	col := func(f func(l stepLayers) int64) float64 {
		v := make([]int64, n)
		for i, l := range layers0 {
			v[i] = f(l)
		}
		return median(v) / 1e6
	}
	skew := make([]int64, n)
	var recv0, step0 int64
	var frames, calls, errs int
	for i := 0; i < n; i++ {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, rl := range layers {
			busy := rl[i].grad + rl[i].selfAgg()
			lo, hi = min(lo, busy), max(hi, busy)
			frames += rl[i].frames
			calls += rl[i].sendCalls
			errs += rl[i].errors
		}
		skew[i] = hi - lo
		recv0 += layers0[i].recv
		step0 += layers0[i].step
	}
	perStep := func(x int) float64 { return float64(x) / float64(t.c.cfg.workers*t.steps()) }
	stepP50 := col(func(l stepLayers) int64 { return l.step })
	grad := col(func(l stepLayers) int64 { return l.grad })
	agg := col(func(l stepLayers) int64 { return l.agg })
	upd := col(func(l stepLayers) int64 { return l.upd })
	commMs := col(func(l stepLayers) int64 { return l.send + l.recv })
	modelled := t.modelled.Seconds() * 1e3 / float64(t.steps())

	rep.add("nn.grad_ms", grad, "ms", "")
	rep.add("core.aggregate_ms", agg, "ms", "")
	rep.add("core.aggregate_self_ms", col(func(l stepLayers) int64 { return l.selfAgg() }), "ms", "aggregate minus send and receive-wait")
	rep.add("core.update_ms", upd, "ms", "")
	rep.add("core.rank_skew_ms", median(skew)/1e6, "ms", "max-min over ranks of grad + aggregate self")
	rep.add("collective.msgs_per_step", perStep(t.comm.MsgsSent), "count", "per rank")
	rep.add("collective.rounds_per_step", perStep(t.comm.Rounds), "count", "per rank")
	rep.add("collective.bytes_per_step", wireT, "B", "per rank")
	rep.add("transport.send_ms", col(func(l stepLayers) int64 { return l.send }), "ms", "")
	rep.add("transport.recv_wait_ms", col(func(l stepLayers) int64 { return l.recv }), "ms", "")
	rep.add("transport.wait_share", float64(recv0)/float64(step0), "ratio", "rank-0 receive-wait over step time")
	rep.add("transport.frames_per_send_call", float64(frames)/float64(max(calls, 1)), "count", "")
	rep.add("transport.errors", float64(errs), "count", "")
	rep.add("transport.comm_ms", commMs, "ms", "send + receive-wait per step")
	rep.add("runtime.gc_cycles_per_step", float64(t.runtime.gcCycles)/float64(t.steps()), "count", "")
	rep.add("runtime.alloc_bytes_mean_per_step", float64(t.runtime.allocBytes)/float64(t.steps()), "B", "mean, including rare large allocations")
	rep.add("runtime.gc_pause_ms_per_step", float64(t.runtime.gcPauseNs)/1e6/float64(t.steps()), "ms", "")
	rep.add("netsim.modelled_comm_ms", modelled, "ms", "Comm.WithClock(netsim.Paper1GbE), rank 0")
	rep.add("netsim.model_ratio", modelled/commMs, "ratio", "modelled over measured send + receive-wait")
	rep.add("trace.step_ms_p50", stepP50, "ms", "rank 0, traced")
	rep.add("trace.remainder_ms", col(func(l stepLayers) int64 { return l.step - l.grad - l.agg - l.upd }), "ms", "step minus grad, aggregate and update")
	spsU, spsT := median(u.blocks), median(t.blocks)
	rep.add("trace.overhead_share", 1-spsT/spsU, "ratio", fmt.Sprintf("untraced %.4g vs traced %.4g steps/s", spsU, spsT))
	rep.notes = append(rep.notes, fmt.Sprintf("rank-0 step p50 %.3f ms = grad %.3f + aggregate %.3f + update %.3f (medians) + %.3f not in any phase",
		stepP50, grad, agg, upd, stepP50-grad-agg-upd))
	dropped := 0
	for _, tr := range t.c.traces {
		dropped += tr.dropped
	}
	if dropped > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans did not fit their buffers", dropped))
	}
	if spansDir != "" {
		header := stamp(w)
		header["workload"], header["seed"], header["warmup_steps"], header["timed_steps"] = w.name, seed, w.warmup, t.steps()
		path := filepath.Join(spansDir, "spans-"+w.name+".jsonl")
		if err := writeSpans(path, header, t.c.traces); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	return rep, nil
}
