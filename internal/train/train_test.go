package train

import (
	"testing"
	"testing/quick"

	"repro/internal/collective"
)

func TestFullFineTune13BDoesNotFitOneGPU(t *testing.T) {
	// The Unit-4 lab's motivating fact: full fp32 fine-tuning of a 13B
	// model needs far more than 80 GB.
	plan := PlanMemory(Llama13B(), Config{Precision: FP32, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048})
	if plan.Fits(80) {
		t.Errorf("13B full fp32 fine-tune reported as fitting 80GB: %+v", plan)
	}
	// Even weights+optimizer alone exceed 80 GB: 13e9 × (4+8) bytes.
	if plan.WeightsGB+plan.OptimizerGB < 140 {
		t.Errorf("weights+optimizer = %.1f GB, expected > 140", plan.WeightsGB+plan.OptimizerGB)
	}
}

func TestBF16ShrinksButStillDoesNotFit(t *testing.T) {
	fp32 := PlanMemory(Llama13B(), Config{Precision: FP32, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048})
	bf16 := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048})
	if bf16.TotalGB >= fp32.TotalGB {
		t.Errorf("bf16 (%0.1f GB) not smaller than fp32 (%0.1f GB)", bf16.TotalGB, fp32.TotalGB)
	}
	// Mixed-precision AdamW still carries fp32 master weights + moments:
	// 13B × (2+2+12) ≈ 194 GB. Memory optimizations alone don't fit 13B.
	if bf16.Fits(80) {
		t.Errorf("bf16 full fine-tune unexpectedly fits 80GB: %+v", bf16)
	}
}

func TestLoRAFitsOn80GB(t *testing.T) {
	lora := &LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2}
	plan := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW,
		MicroBatch: 1, SeqLen: 2048, GradCheckpoint: true, LoRA: lora})
	if !plan.Fits(80) {
		t.Errorf("13B LoRA should fit on A100-80GB: %+v", plan)
	}
	// Trainable params should be tiny relative to the model.
	if plan.TrainableParams > 0.01*Llama13B().Params {
		t.Errorf("LoRA trainable params %.3g too large", plan.TrainableParams)
	}
}

func TestQLoRAFitsOn40GB(t *testing.T) {
	qlora := &LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2, QuantizeBase: true}
	plan := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW,
		MicroBatch: 1, SeqLen: 2048, GradCheckpoint: true, LoRA: qlora})
	if !plan.Fits(40) {
		t.Errorf("13B QLoRA should fit on 40GB: %+v", plan)
	}
	// NF4 base weights are ~6.5 GB vs 26 GB bf16.
	if plan.WeightsGB > 10 {
		t.Errorf("QLoRA weights = %.1f GB, expected < 10", plan.WeightsGB)
	}
}

func TestGradCheckpointShrinksActivations(t *testing.T) {
	base := Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 4, SeqLen: 2048}
	on := base
	on.GradCheckpoint = true
	pOff := PlanMemory(Llama13B(), base)
	pOn := PlanMemory(Llama13B(), on)
	if pOn.ActivationsGB >= pOff.ActivationsGB/4 {
		t.Errorf("checkpointing: activations %.1f GB vs %.1f GB, want big shrink",
			pOn.ActivationsGB, pOff.ActivationsGB)
	}
}

func TestGradAccumDoesNotGrowActivations(t *testing.T) {
	a := PlanMemory(Llama13B(), Config{Precision: BF16, MicroBatch: 2, SeqLen: 2048, GradAccumSteps: 1})
	b := PlanMemory(Llama13B(), Config{Precision: BF16, MicroBatch: 2, SeqLen: 2048, GradAccumSteps: 16})
	if a.ActivationsGB != b.ActivationsGB {
		t.Errorf("grad accum changed activation memory: %v vs %v", a.ActivationsGB, b.ActivationsGB)
	}
	// But a bigger micro-batch does grow them.
	c := PlanMemory(Llama13B(), Config{Precision: BF16, MicroBatch: 8, SeqLen: 2048})
	if c.ActivationsGB <= a.ActivationsGB {
		t.Error("larger micro-batch should grow activations")
	}
}

func TestFSDPShardsMemory(t *testing.T) {
	single := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048})
	fsdp4 := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW,
		MicroBatch: 1, SeqLen: 2048, ZeROStage: 3, DataParallel: 4})
	if fsdp4.WeightsGB*3.9 > single.WeightsGB {
		t.Errorf("FSDP weights %.1f GB not ~1/4 of %.1f GB", fsdp4.WeightsGB, single.WeightsGB)
	}
	// The multi-GPU lab finding: 4× A100-80 with FSDP + bf16 +
	// checkpointing fits a full 13B fine-tune.
	fit := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW,
		MicroBatch: 1, SeqLen: 2048, GradCheckpoint: true, ZeROStage: 3, DataParallel: 4})
	if !fit.Fits(80) {
		t.Errorf("13B FSDP/4-GPU fine-tune should fit on 80GB: %+v", fit)
	}
}

func TestZeroStagesMonotonic(t *testing.T) {
	f := func(stageRaw uint8, dpRaw uint8) bool {
		dp := int(dpRaw%7) + 2
		prev := -1.0
		for stage := 0; stage <= 3; stage++ {
			p := PlanMemory(Llama13B(), Config{Precision: BF16, Optimizer: AdamW,
				MicroBatch: 1, SeqLen: 2048, ZeROStage: stage, DataParallel: dp})
			if prev >= 0 && p.TotalGB > prev+1e-9 {
				return false
			}
			prev = p.TotalGB
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEstimateStepBasics(t *testing.T) {
	net := collective.DefaultCostModel()
	cfg := Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048}
	one, err := EstimateStep(Llama13B(), cfg, A100_80, 1, SingleGPU, net)
	if err != nil {
		t.Fatal(err)
	}
	if one.CommSeconds != 0 {
		t.Errorf("single GPU comm = %v, want 0", one.CommSeconds)
	}
	if one.TokensPerSec <= 0 {
		t.Error("non-positive throughput")
	}
	four, err := EstimateStep(Llama13B(), cfg, A100_80, 4, DDP, net)
	if err != nil {
		t.Fatal(err)
	}
	if four.TokensPerSec <= one.TokensPerSec {
		t.Errorf("4-GPU DDP (%.0f tok/s) not faster than 1 GPU (%.0f tok/s)",
			four.TokensPerSec, one.TokensPerSec)
	}
	if four.ScalingEfficiency <= 0.5 || four.ScalingEfficiency > 1 {
		t.Errorf("scaling efficiency = %v, want (0.5, 1]", four.ScalingEfficiency)
	}
}

func TestBF16RequiresCapableGPU(t *testing.T) {
	// The lab's hardware requirement: bf16 needs compute capability 8.0+.
	cfg := Config{Precision: BF16, MicroBatch: 1, SeqLen: 512}
	if _, err := EstimateStep(llama7b, cfg, V100, 1, SingleGPU, collective.DefaultCostModel()); err == nil {
		t.Error("bf16 on V100 should fail")
	}
	cfg.Precision = FP16
	if _, err := EstimateStep(llama7b, cfg, V100, 1, SingleGPU, collective.DefaultCostModel()); err != nil {
		t.Errorf("fp16 on V100 should work: %v", err)
	}
}

func TestFSDPCostsMoreCommThanDDP(t *testing.T) {
	net := collective.DefaultCostModel()
	cfg := Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048}
	ddp, _ := EstimateStep(Llama13B(), cfg, A100_80, 4, DDP, net)
	fsdp, _ := EstimateStep(Llama13B(), cfg, A100_80, 4, FSDP, net)
	if fsdp.CommSeconds <= ddp.CommSeconds {
		t.Errorf("FSDP comm %v should exceed DDP comm %v", fsdp.CommSeconds, ddp.CommSeconds)
	}
}

func TestLoRAShrinksDDPComm(t *testing.T) {
	net := collective.DefaultCostModel()
	full := Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048}
	lora := full
	lora.LoRA = &LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2}
	f, _ := EstimateStep(Llama13B(), full, A100_80, 4, DDP, net)
	l, _ := EstimateStep(Llama13B(), lora, A100_80, 4, DDP, net)
	if l.CommSeconds >= f.CommSeconds/10 {
		t.Errorf("LoRA comm %v not ≪ full fine-tune comm %v", l.CommSeconds, f.CommSeconds)
	}
}

func TestScalingCurveMonotoneButSublinear(t *testing.T) {
	cfg := Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 1, SeqLen: 2048}
	curve, err := ScalingCurve(Llama13B(), cfg, A100_80, DDP, collective.NVLinkCostModel(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Errorf("throughput not increasing at %d GPUs: %v", i+1, curve)
		}
	}
	if curve[7] >= 8*curve[0] {
		t.Errorf("8-GPU throughput %v super-linear vs 1-GPU %v", curve[7], curve[0])
	}
	if curve[7] < 5*curve[0] {
		t.Errorf("8-GPU scaling efficiency below 62%%: %v vs %v", curve[7], curve[0])
	}
}

func TestEstimateStepValidation(t *testing.T) {
	net := collective.DefaultCostModel()
	cfg := Config{Precision: BF16, MicroBatch: 1, SeqLen: 128}
	if _, err := EstimateStep(llama7b, cfg, A100_80, 0, DDP, net); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := EstimateStep(llama7b, cfg, A100_80, 4, SingleGPU, net); err == nil {
		t.Error("single-GPU strategy with 4 GPUs accepted")
	}
}

func BenchmarkPlanMemory(b *testing.B) {
	cfg := Config{Precision: BF16, Optimizer: AdamW, MicroBatch: 4, SeqLen: 2048,
		GradCheckpoint: true, LoRA: &LoRAConfig{Rank: 16, AdaptedMatricesPerLayer: 2}}
	for i := 0; i < b.N; i++ {
		PlanMemory(Llama13B(), cfg)
	}
}

// llama7b approximates a 7-billion-parameter decoder.
var llama7b = ModelSpec{Name: "llama-7b", Params: 6.7e9, Layers: 32, Hidden: 4096, VocabSize: 32000}
