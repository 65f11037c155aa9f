package train

// CheckpointBytes returns the size of a resumable training checkpoint
// for model m under config c: trainable weights in training precision
// plus the optimizer state (including the fp32 master copy AdamW keeps
// when training in reduced precision). Frozen base weights under LoRA
// are not checkpointed — they are reproducible from the original model
// artifact, so only the adapters and their optimizer moments travel.
//
// This is what the spot-survival machinery persists on a preemption
// notice: the checkpoint write time (size / blockstore bandwidth) and
// the pool's MTBF feed orchestrator.PlanCheckpoints, which picks the
// Young-formula interval between periodic saves.
func CheckpointBytes(m ModelSpec, c Config) float64 {
	trainable := m.Params
	if c.LoRA != nil {
		trainable = c.LoRA.TrainableParams(m)
	}
	perParam := c.Precision.Bytes() + c.Optimizer.StatesBytesPerParam()
	if c.Precision != FP32 && c.Optimizer == AdamW {
		perParam += 4 // fp32 master weights are part of resumable state
	}
	return trainable * perParam
}
