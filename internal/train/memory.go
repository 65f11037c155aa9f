// Package train models the memory and throughput of large-model training
// — the subject of the course's Unit-4 lab, where students fine-tune a
// 13-billion-parameter LLM first on one A100-80GB (exploring gradient
// accumulation, reduced precision, and LoRA/QLoRA) and then across four
// GPUs with distributed data parallelism or FSDP.
//
// The memory planner follows the standard accounting used by practitioner
// guides: weights + gradients + optimizer state + activations, with each
// term transformed by the chosen precision, parameter-efficient
// fine-tuning method, sharding strategy, and gradient checkpointing. The
// numbers are analytic, not measured — the point is to reproduce the
// lab's qualitative findings (13B full fine-tuning does not fit on a
// single 80 GB GPU in fp32; QLoRA fits comfortably) and feed the
// usage/cost simulation with realistic session shapes.
package train

import "fmt"

// Precision selects the numeric format for weights and activations.
type Precision int

const (
	FP32 Precision = iota
	FP16
	BF16
	INT8
	NF4 // 4-bit NormalFloat, the QLoRA base-weight format
)

// Bytes returns bytes per parameter in this precision.
func (p Precision) Bytes() float64 {
	switch p {
	case FP32:
		return 4
	case FP16, BF16:
		return 2
	case INT8:
		return 1
	case NF4:
		return 0.5
	default:
		return 4
	}
}

func (p Precision) String() string {
	switch p {
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case BF16:
		return "bf16"
	case INT8:
		return "int8"
	case NF4:
		return "nf4"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Optimizer selects the optimizer-state footprint.
type Optimizer int

const (
	// AdamW keeps two fp32 moments per trainable parameter, plus an fp32
	// master copy of the weights when training in reduced precision.
	AdamW Optimizer = iota
	// SGDMomentum keeps one fp32 moment.
	SGDMomentum
	// AdamW8bit quantizes both moments to one byte each.
	AdamW8bit
)

// StatesBytesPerParam returns optimizer-state bytes per trainable param,
// excluding any master-weight copy.
func (o Optimizer) StatesBytesPerParam() float64 {
	switch o {
	case AdamW:
		return 8
	case SGDMomentum:
		return 4
	case AdamW8bit:
		return 2
	default:
		return 8
	}
}

// ModelSpec describes a transformer LLM's size.
type ModelSpec struct {
	Name   string
	Params float64 // total parameters
	Layers int
	Hidden int
	// VocabSize only matters for activation accounting of the head.
	VocabSize int
}

// Llama13B approximates the 13-billion-parameter decoder the lab
// fine-tunes (40 layers, 5120 hidden).
func Llama13B() ModelSpec {
	return ModelSpec{Name: "llama-13b", Params: 13.0e9, Layers: 40, Hidden: 5120, VocabSize: 32000}
}

// LoRAConfig selects parameter-efficient fine-tuning: only low-rank
// adapters train; the base model is frozen (and, for QLoRA, quantized).
type LoRAConfig struct {
	Rank int
	// AdaptedMatricesPerLayer counts the weight matrices receiving
	// adapters (commonly 2 for Q,V; up to 7 for all projections).
	AdaptedMatricesPerLayer int
	// QuantizeBase stores frozen base weights in NF4 (QLoRA).
	QuantizeBase bool
}

// TrainableParams returns the adapter parameter count for model m: each
// adapted d×d matrix gains A(d×r) + B(r×d) = 2·d·r parameters.
func (l LoRAConfig) TrainableParams(m ModelSpec) float64 {
	return 2 * float64(l.Rank) * float64(m.Hidden) * float64(l.AdaptedMatricesPerLayer) * float64(m.Layers)
}

// Config selects the training strategy whose memory footprint and step
// time are being planned.
type Config struct {
	Precision Precision
	Optimizer Optimizer
	// MicroBatch is the per-GPU batch size per forward pass; SeqLen the
	// sequence length.
	MicroBatch int
	SeqLen     int
	// GradAccumSteps multiplies the effective batch without growing
	// activation memory.
	GradAccumSteps int
	// GradCheckpoint recomputes activations in the backward pass,
	// shrinking activation memory ~Layers-fold at ~33% extra compute.
	GradCheckpoint bool
	// LoRA enables parameter-efficient fine-tuning when non-nil.
	LoRA *LoRAConfig
	// ZeROStage shards optimizer state (1), plus gradients (2), plus
	// weights (3 — FSDP) across DataParallel workers.
	ZeROStage int
	// DataParallel is the number of data-parallel workers (for sharding
	// denominators in the memory plan).
	DataParallel int
}

// MemoryPlan is the per-GPU memory budget in GB for one training setup.
type MemoryPlan struct {
	WeightsGB     float64
	GradientsGB   float64
	OptimizerGB   float64
	ActivationsGB float64
	// OverheadGB covers CUDA context, fragmentation, and buffers; fixed
	// at ~1.5 GB plus 5% of the dynamic total.
	OverheadGB float64
	TotalGB    float64

	TrainableParams float64
}

const bytesPerGB = 1 << 30

// PlanMemory computes the per-GPU memory footprint of training model m
// under config c.
func PlanMemory(m ModelSpec, c Config) MemoryPlan {
	if c.MicroBatch <= 0 {
		c.MicroBatch = 1
	}
	if c.SeqLen <= 0 {
		c.SeqLen = 2048
	}
	dp := c.DataParallel
	if dp <= 0 {
		dp = 1
	}

	var plan MemoryPlan
	trainable := m.Params
	baseBytes := c.Precision.Bytes()
	if c.LoRA != nil {
		trainable = c.LoRA.TrainableParams(m)
		if c.LoRA.QuantizeBase {
			baseBytes = NF4.Bytes()
		}
		// Frozen base + adapters (adapters kept in training precision).
		plan.WeightsGB = (m.Params*baseBytes + trainable*c.Precision.Bytes()) / bytesPerGB
	} else {
		plan.WeightsGB = m.Params * baseBytes / bytesPerGB
	}
	plan.TrainableParams = trainable

	// Gradients exist only for trainable parameters, in training precision.
	plan.GradientsGB = trainable * c.Precision.Bytes() / bytesPerGB

	// Optimizer state per trainable param, plus fp32 master weights when
	// training trainables in reduced precision with AdamW.
	optBytes := c.Optimizer.StatesBytesPerParam()
	if c.Precision != FP32 && c.Optimizer == AdamW {
		optBytes += 4 // master copy
	}
	plan.OptimizerGB = trainable * optBytes / bytesPerGB

	// ZeRO sharding divides the corresponding terms across workers.
	if dp > 1 {
		if c.ZeROStage >= 1 {
			plan.OptimizerGB /= float64(dp)
		}
		if c.ZeROStage >= 2 {
			plan.GradientsGB /= float64(dp)
		}
		if c.ZeROStage >= 3 {
			plan.WeightsGB /= float64(dp)
		}
	}

	// Activations: the widely used transformer estimate is roughly
	// sbh·L·(34 + 5·a·s/h) bytes in fp16 for batch b, seq s, hidden h —
	// we use the simpler sbh·L·k with k≈16 bytes/element in reduced
	// precision (double in fp32), which matches the lab's orders of
	// magnitude. Gradient checkpointing keeps only layer inputs:
	// sbh·L·2 bytes plus one layer's working set.
	actBytesPerElem := 16.0
	if c.Precision == FP32 {
		actBytesPerElem = 32
	}
	elems := float64(c.MicroBatch) * float64(c.SeqLen) * float64(m.Hidden) * float64(m.Layers)
	if c.GradCheckpoint {
		perLayer := float64(c.MicroBatch) * float64(c.SeqLen) * float64(m.Hidden) * actBytesPerElem
		plan.ActivationsGB = (elems*2 + perLayer) / bytesPerGB
	} else {
		plan.ActivationsGB = elems * actBytesPerElem / bytesPerGB
	}

	dynamic := plan.WeightsGB + plan.GradientsGB + plan.OptimizerGB + plan.ActivationsGB
	plan.OverheadGB = 1.5 + 0.05*dynamic
	plan.TotalGB = dynamic + plan.OverheadGB
	return plan
}

// Fits reports whether the plan fits in a GPU with memGB of memory.
func (p MemoryPlan) Fits(memGB float64) bool { return p.TotalGB <= memGB }
