package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"gtopkssgd/internal/collective"
	"gtopkssgd/internal/core"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/transport"
)

// TestWrappersKeepCapabilities wraps a TCP endpoint in the link emulator
// and the tracer and checks that the pair still reports every capability
// of the fabric underneath, and that a vectored batch stays one call.
func TestWrappersKeepCapabilities(t *testing.T) {
	fab, err := transport.NewTCPWithOptions(2, transport.TCPOptions{WireVersion: transport.WireV3})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	rec := newRankTrace(0, time.Now(), 1)
	var conn transport.Conn = &tracedConn{Conn: &linkConn{Conn: fab.Conn(0), model: netsim.Model{Alpha: time.Microsecond}}, rec: rec}

	if !transport.SendConsumedOnReturn(conn) {
		t.Error("wrapped TCP conn lost SendConsumedOnReturn")
	}
	if !transport.PrivateRecv(conn) {
		t.Error("wrapped TCP conn lost PrivateRecv")
	}
	if v := transport.NegotiatedWireVersion(conn); v != transport.WireV3 {
		t.Errorf("wrapped TCP conn reports wire v%d, want v%d", v, transport.WireV3)
	}
	if _, ok := conn.(transport.PooledSender); !ok {
		t.Error("wrapped conn is not a PooledSender")
	}
	if _, ok := conn.(transport.VectoredSender); !ok {
		t.Error("wrapped conn is not a VectoredSender")
	}
	comm := collective.New(conn)
	if comm.WireVersion() != transport.WireV3 || !comm.SendConsumedOnReturn() || !comm.RecvIsPrivate() {
		t.Error("communicator over the wrapped conn lost a capability")
	}

	ctx := context.Background()
	frames := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	if err := transport.SendVec(ctx, conn, 1, 7, frames); err != nil {
		t.Fatal(err)
	}
	for _, want := range frames {
		got, err := fab.Conn(1).Recv(ctx, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("received %q, want %q", got, want)
		}
	}
	if len(rec.spans) != 1 || rec.spans[0].kind != spanSend || rec.spans[0].frames != 3 {
		t.Fatalf("spans %+v, want one send call carrying 3 frames", rec.spans)
	}

	// An in-process endpoint hands the sender's slice to the receiver;
	// the wrappers must not claim otherwise.
	inproc, err := transport.NewInProc(2)
	if err != nil {
		t.Fatal(err)
	}
	defer inproc.Close()
	var local transport.Conn = &tracedConn{Conn: &linkConn{Conn: inproc.Conn(0)}, rec: rec}
	if transport.SendConsumedOnReturn(local) || transport.PrivateRecv(local) {
		t.Error("wrapped in-process conn claims TCP ownership rules")
	}
}

// smallWorkload is a quick quadratic workload over TCP behind a fast
// emulated link; k = 2000 splits every message into four chunk frames.
func smallWorkload() workload {
	return workload{
		name:    "small",
		model:   "quadratic",
		dim:     200_000,
		density: 0.01,
		tcp:     true,
		link:    &netsim.Model{Alpha: 20 * time.Microsecond, Beta: time.Nanosecond},
		cfg:     core.TrainConfig{LR: 0.02, Momentum: 0.9, GradClip: 1},
		warmup:  3,
		setups:  2,
	}
}

func metricNames(rep *report) []string {
	var names []string
	for _, m := range rep.metrics {
		names = append(names, m.name)
	}
	slices.Sort(names)
	return names
}

// benchmarkNames reads the metric names BENCHMARK.json declares for the
// end-to-end (traced false) or per-layer (traced true) runs.
func benchmarkNames(t *testing.T, traced bool) []string {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type named []struct {
		Name string `json:"name"`
	}
	var spec struct {
		EndToEnd named `json:"end_to_end"`
		PerLayer named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	var names []string
	for _, m := range list {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

func TestEndToEndRunIsCorrect(t *testing.T) {
	rep, err := runEndToEnd(context.Background(), smallWorkload(), 3, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.note)
		}
	}
	if rep.failed != 0 || rep.attempted < minTimedSteps {
		t.Errorf("failed %d of %d steps", rep.failed, rep.attempted)
	}
	if got, want := metricNames(rep), benchmarkNames(t, false); !slices.Equal(got, want) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
	}
}

func TestTracedRunMatchesUntraced(t *testing.T) {
	rep, err := runTraced(context.Background(), smallWorkload(), 5, 200*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.checks {
		if !c.ok {
			t.Errorf("check %s failed: %s", c.name, c.note)
		}
	}
	for _, m := range rep.metrics {
		if m.name == "transport.frames_per_send_call" && m.value != float64(core.ChunksFor(2000)) {
			t.Errorf("frames per send call %v, want %d: the tracer broke vectored sends", m.value, core.ChunksFor(2000))
		}
	}
	if got, want := metricNames(rep), benchmarkNames(t, true); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", got, want)
	}
}

// TestFailureCheckTripsOnDivergingTraining runs gtopk-train's defaults
// (vgg16sim, gtopk, 4 workers, batch 16, lr 0.05, momentum 0.9, no clip,
// seed 42) for 8 epochs of 30 iterations, whose loss turns NaN in epoch
// 6, and checks that the failure accounting counts those steps.
func TestFailureCheckTripsOnDivergingTraining(t *testing.T) {
	w := workload{
		name:    "gtopk-train-defaults",
		model:   "vgg16sim",
		batch:   16,
		density: 0.001,
		cfg:     core.TrainConfig{LR: 0.05, Momentum: 0.9},

		momentumCorrection: true,
		setups:             1,
	}
	s, err := runConfig{w: w, seed: 42, workers: 4}.start(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.block(context.Background(), 240)
	s.finish()
	first := slices.Index(s.bad, true)
	if first < 150 || first >= 180 {
		t.Fatalf("first failed step %d, want one in epoch 6 (steps 150-179)", first)
	}
	if s.failed() == 0 {
		t.Fatal("non-finite losses were not counted as failed steps")
	}
	rep := &report{w: w}
	checkRun(rep, "P=4", s)
	for _, c := range rep.checks {
		if c.name == "loss_finite" && c.ok {
			t.Fatal("a run with non-finite losses passed the loss_finite check")
		}
	}
}

// TestFailureCheckTripsOnPerturbedReplica nudges one weight of one
// replica once; the replicas then end apart, and every step counts as
// failed.
func TestFailureCheckTripsOnPerturbedReplica(t *testing.T) {
	w, err := lookupWorkload("train-vgg16")
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.setups = 2, 1
	rc := runConfig{w: w, seed: 1, workers: 2, perturb: func(rank, step int, weights []float32) {
		if rank == 1 && step == 5 {
			weights[0] += 1e-3
		}
	}}
	s, err := rc.start(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.block(context.Background(), 10)
	s.finish()
	if s.replicasAgree() {
		t.Fatal("perturbed replicas ended bit-identical")
	}
	if s.failed() != s.steps() {
		t.Fatalf("failed %d of %d steps, want all", s.failed(), s.steps())
	}
}
