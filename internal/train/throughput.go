package train

import (
	"fmt"

	"repro/internal/collective"
)

// GPUProfile captures the throughput-relevant properties of an
// accelerator. TFLOPS values are dense peak for the given precision;
// MFU (model FLOPs utilization) is applied separately.
type GPUProfile struct {
	Name    string
	MemGB   float64
	TFLOPS  map[Precision]float64
	HasBF16 bool
}

// Accelerator catalog for the node types in the course (peak dense
// TFLOPS from vendor datasheets; fp16 via tensor cores where present).
var (
	A100_80 = GPUProfile{Name: "A100-80GB", MemGB: 80, HasBF16: true,
		TFLOPS: map[Precision]float64{FP32: 19.5, BF16: 312, FP16: 312, INT8: 624}}
	V100 = GPUProfile{Name: "V100", MemGB: 32,
		TFLOPS: map[Precision]float64{FP32: 15.7, FP16: 125, BF16: 0, INT8: 125}}
)

// Strategy selects the distributed-training paradigm for step-time
// estimation.
type Strategy int

const (
	// SingleGPU trains on one device (possibly with gradient accumulation).
	SingleGPU Strategy = iota
	// DDP replicates the model and all-reduces gradients every step.
	DDP
	// FSDP shards weights/grads/optimizer; per step it all-gathers
	// weights (forward and backward) and reduce-scatters gradients —
	// ~1.5x DDP's communication volume.
	FSDP
)

func (s Strategy) String() string {
	switch s {
	case SingleGPU:
		return "single"
	case DDP:
		return "ddp"
	case FSDP:
		return "fsdp"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// StepEstimate is the predicted behavior of one optimizer step.
type StepEstimate struct {
	ComputeSeconds float64
	CommSeconds    float64 // non-overlapped communication
	StepSeconds    float64
	TokensPerSec   float64
	// ScalingEfficiency is throughput(n GPUs) / (n × throughput(1 GPU)).
	ScalingEfficiency float64
}

// mfu is the assumed model-FLOPs-utilization for dense transformer
// training; 0.40 is typical of tuned fine-tuning jobs.
const mfu = 0.40

// commOverlap is the fraction of gradient communication hidden behind
// the backward pass by bucketed overlapping (PyTorch DDP default
// behavior).
const commOverlap = 0.7

// EstimateStep predicts one training step of model m under config c on
// nGPUs devices of the given profile connected by net.
func EstimateStep(m ModelSpec, c Config, gpu GPUProfile, nGPUs int, strategy Strategy, net collective.CostModel) (StepEstimate, error) {
	if nGPUs <= 0 {
		return StepEstimate{}, fmt.Errorf("train: nGPUs must be positive, got %d", nGPUs)
	}
	if strategy == SingleGPU && nGPUs != 1 {
		return StepEstimate{}, fmt.Errorf("train: single-GPU strategy with %d GPUs", nGPUs)
	}
	if c.Precision == BF16 && !gpu.HasBF16 {
		return StepEstimate{}, fmt.Errorf("train: %s lacks bf16 support (compute capability < 8.0)", gpu.Name)
	}
	flops := gpu.TFLOPS[c.Precision] * 1e12 * mfu
	if flops <= 0 {
		return StepEstimate{}, fmt.Errorf("train: %s has no %s throughput", gpu.Name, c.Precision)
	}
	if c.MicroBatch <= 0 {
		c.MicroBatch = 1
	}
	if c.SeqLen <= 0 {
		c.SeqLen = 2048
	}
	accum := c.GradAccumSteps
	if accum <= 0 {
		accum = 1
	}

	// Forward+backward is ~6 FLOPs per parameter per token; gradient
	// checkpointing adds one extra forward (~2 more).
	flopsPerToken := 6 * m.Params
	if c.GradCheckpoint {
		flopsPerToken += 2 * m.Params
	}
	tokensPerMicro := float64(c.MicroBatch) * float64(c.SeqLen)
	compute := flopsPerToken * tokensPerMicro * float64(accum) / flops

	// Communication: gradients for trainable params once per optimizer
	// step (after accumulation), in training precision.
	trainable := m.Params
	if c.LoRA != nil {
		trainable = c.LoRA.TrainableParams(m)
	}
	gradBytes := trainable * c.Precision.Bytes()
	var comm float64
	switch strategy {
	case SingleGPU:
		comm = 0
	case DDP:
		comm = net.Ring(nGPUs, gradBytes)
	case FSDP:
		// all-gather weights (fwd + bwd) + reduce-scatter grads: model
		// as 1.5× the ring all-reduce volume of the full weights.
		weightBytes := m.Params * c.Precision.Bytes()
		comm = 1.5 * net.Ring(nGPUs, weightBytes)
	}
	exposed := comm * (1 - commOverlap)

	step := compute + exposed
	est := StepEstimate{
		ComputeSeconds: compute,
		CommSeconds:    exposed,
		StepSeconds:    step,
		TokensPerSec:   tokensPerMicro * float64(accum) * float64(nGPUs) / step,
	}
	est.ScalingEfficiency = compute / step
	return est, nil
}

// ScalingCurve returns tokens/sec for 1..maxGPUs workers, the figure the
// multi-GPU half of the Unit-4 lab has students produce.
func ScalingCurve(m ModelSpec, c Config, gpu GPUProfile, strategy Strategy, net collective.CostModel, maxGPUs int) ([]float64, error) {
	out := make([]float64, 0, maxGPUs)
	for n := 1; n <= maxGPUs; n++ {
		s := strategy
		if n == 1 {
			s = SingleGPU
		}
		est, err := EstimateStep(m, c, gpu, n, s, net)
		if err != nil {
			return nil, err
		}
		out = append(out, est.TokensPerSec)
	}
	return out, nil
}
