// Package repro reproduces "The Cost of Teaching Operational ML"
// (SC Workshops '25) as a Go library: a Chameleon-style cloud testbed
// simulator, the MLOps substrate the course teaches, a calibrated
// student-usage simulator, and the AWS/GCP cost model behind the paper's
// Table 1 and Figures 1–3.
//
// Start with pkg/mlsysops (the public facade), cmd/coursesim (the
// experiment runner), and DESIGN.md (the system inventory and experiment
// index). EXPERIMENTS.md sets the simulated numbers beside the paper's;
// TestExperimentsDoc renders them and fails when the document is stale,
// and TestScenarios checks every program's output against its golden.
package repro
