package main

import (
	"fmt"
	"math"

	"gtopkssgd/internal/core"
	"gtopkssgd/internal/data"
	"gtopkssgd/internal/netsim"
	"gtopkssgd/internal/nn"
	"gtopkssgd/internal/nn/models"
	"gtopkssgd/internal/prng"
)

// workload is one benchmark input: a model, a density and a fabric. Each
// of the three loads a different layer of the stack (see why).
type workload struct {
	name string
	why  string

	model   string // "vgg16sim" or "quadratic"
	dim     int    // quadratic only: parameter count
	batch   int    // vgg16sim only: samples per rank per step
	density float64
	// labelNoise (vgg16sim only) is the seeded share of training labels
	// replaced by another class. With it the loss settles near the
	// noise's entropy instead of decaying towards zero, so its mean over
	// the timed steps is steady across seeds and still rises when
	// training breaks. Zero trains on the clean labels exactly as
	// gtopk-train does.
	labelNoise float64

	tcp  bool          // loopback TCP fabric instead of in-process mailboxes
	link *netsim.Model // emulated link cost charged before every send (nil: none)

	cfg core.TrainConfig
	// momentumCorrection moves the momentum into the aggregator (DGC
	// style) and leaves the trainer with plain SGD, as the repository's
	// experiment recipe does for sparsified training.
	momentumCorrection bool

	// warmup is the number of untimed steps before measurement: enough
	// for the residual, the buffer pools and the heap to reach their
	// steady state.
	warmup int
	// setups is how many times set-up is repeated to report its median.
	setups int
}

var paperLink = netsim.Paper1GbE()

var workloads = []workload{
	{
		name:    "train-vgg16",
		why:     "vgg16sim gTop-k training at rho=0.001 in-process: the nn layers do most of each step, so model-compute changes show here and sparse or transport changes should read flat",
		model:   "vgg16sim",
		batch:   16,
		density: 0.001,
		cfg:     core.TrainConfig{LR: 0.02, Momentum: 0.9, GradClip: 1},

		labelNoise: 0.2,

		momentumCorrection: true,
		warmup:             60,
		setups:             9,
	},
	{
		name:    "agg-4m",
		why:     "4M parameters at the paper's rho=0.001 over loopback TCP: selection, merge and update fill the step while transport moves 32 KB, so core changes show and link or codec changes should read flat",
		model:   "quadratic",
		dim:     4_000_000,
		density: 0.001,
		tcp:     true,
		cfg:     core.TrainConfig{LR: 0.02, Momentum: 0.9, GradClip: 1},
		warmup:  10,
		setups:  5,
	},
	{
		name:    "warmup-1gbe",
		why:     "4M parameters at the warmup density rho=0.0725 over TCP behind an emulated paper 1GbE link: 2.3 MB frames make send and receive-wait a third of the step, the regime where saved bytes become time",
		model:   "quadratic",
		dim:     4_000_000,
		density: 0.0725,
		tcp:     true,
		link:    &paperLink,
		cfg:     core.TrainConfig{LR: 0.02, Momentum: 0.9, GradClip: 1},
		warmup:  6,
		setups:  5,
	},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// replica is one rank's model: its weight buffer and gradient function.
type replica struct {
	weights []float32
	gradFn  core.GradFn
}

// newDataset builds the images every rank of a vgg16sim run draws from
// (nil for the quadratic, whose targets are per rank).
func (w workload) newDataset(seed uint64) (*data.Images, error) {
	if w.model != "vgg16sim" {
		return nil, nil
	}
	// The dataset and initialisation seeds follow bench.RunTraining, so a
	// configuration here reproduces the same run as gtopk-train.
	ds, err := data.NewImages(seed+1000, 10, 3, 8, 8, 0.4)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return ds, nil
}

func (w workload) paramCount() int {
	if w.model == "vgg16sim" {
		return models.VGG16Sim().Net.ParamCount()
	}
	return w.dim
}

func (w workload) k() int { return core.DensityToK(w.paramCount(), w.density) }

// newReplica builds rank's model. Every rank starts from identical
// weights; only the data (vgg16sim) or the target (quadratic) differ.
func (w workload) newReplica(ds *data.Images, seed uint64, rank, workers int) replica {
	if w.model == "vgg16sim" {
		cls := models.VGG16Sim()
		cls.Net.Init(seed)
		gradFn := models.GradFn(cls, ds, rank, workers, w.batch)
		if w.labelNoise > 0 {
			gradFn = noisyLabelGradFn(cls, ds, seed, rank, workers, w.batch, w.labelNoise)
		}
		return replica{weights: cls.Net.Parameters(), gradFn: gradFn}
	}
	return newQuadratic(w.dim, seed, rank)
}

// noisyLabelGradFn is models.GradFn with a seeded share of the batch's
// labels replaced by another class; sample i of a step keeps its global
// index in the sample stream, so every rank and run flips the same ones.
func noisyLabelGradFn(cls *models.Classifier, ds *data.Images, seed uint64, rank, workers, batch int, share float64) core.GradFn {
	return func(iter int, _, grad []float32) float64 {
		x, labels := ds.Batch(iter, rank, workers, batch)
		base := uint64(iter)*uint64(workers*batch) + uint64(rank*batch)
		for i := range labels {
			h := mix64(seed ^ mix64(base+uint64(i)))
			if float64(h>>11)/(1<<53) < share {
				labels[i] = (labels[i] + 1 + int(mix64(h)%uint64(cls.Classes-1))) % cls.Classes
			}
		}
		cls.Net.ZeroGrad()
		logits := cls.Net.Forward(x, true)
		loss, dlogits := nn.SoftmaxCrossEntropy(logits, labels)
		cls.Net.Backward(dlogits)
		copy(grad, cls.Net.Gradients())
		return loss
	}
}

// mix64 is the splitmix64 finaliser: a stateless seeded hash.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// newQuadratic is the synthetic large-gradient model: rank r minimises
// L_r(w) = ½·mean((w − t_r)²) with a seeded Gaussian target t_r. Its
// gradient w − t_r starts as the seeded vector −t_r, generated before
// timing, and changes only where updates land; computing it is one pass
// over the weights, so nearly all of a step is aggregation and update.
func newQuadratic(dim int, seed uint64, rank int) replica {
	src := prng.New(seed).Split(uint64(rank))
	target := make([]float32, dim)
	for i := range target {
		target[i] = float32(src.NormFloat64())
	}
	weights := make([]float32, dim)
	gradFn := func(_ int, w, grad []float32) float64 {
		// Four partial sums break the add dependency chain.
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(w); i += 4 {
			d0, d1, d2, d3 := w[i]-target[i], w[i+1]-target[i+1], w[i+2]-target[i+2], w[i+3]-target[i+3]
			grad[i], grad[i+1], grad[i+2], grad[i+3] = d0, d1, d2, d3
			s0 += float64(d0 * d0)
			s1 += float64(d1 * d1)
			s2 += float64(d2 * d2)
			s3 += float64(d3 * d3)
		}
		for ; i < len(w); i++ {
			d := w[i] - target[i]
			grad[i] = d
			s0 += float64(d * d)
		}
		return (s0 + s1 + s2 + s3) / (2 * float64(len(w)))
	}
	return replica{weights: weights, gradFn: gradFn}
}

// finite reports whether a loss is a usable number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
