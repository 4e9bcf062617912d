// Package repro is a from-scratch Go implementation of "Rumor Initiator
// Detection in Infected Signed Networks" (Zhang, Aggarwal, Yu — ICDCS
// 2017): the MFC (asyMmetric Flipping Cascade) diffusion model for
// weighted signed directed networks, and the RID (Rumor Initiator
// Detector) framework that works backwards from an infected-network
// snapshot to the most likely rumor initiators and their initial states.
//
// This root package is the public facade: it re-exports the stable types
// and constructors from the internal packages and adds end-to-end helpers
// (LoadDataset, SimulateMFC, NewSnapshot, the detector constructors) that
// the examples and benchmarks are written against. The heavy lifting
// lives in internal/:
//
//	sgraph     signed graph substrate (Definitions 1–3)
//	diffusion  MFC, IC, LT, SIR simulators
//	cascade    infected components + cascade forest extraction (Alg. 4)
//	arbor      Chu-Liu/Edmonds arborescences (Alg. 2–3)
//	isomit     ISOMIT tree solvers (Sec. III-D/E); Sec. III-B likelihoods in its tests
//	core       RID and the paper's baselines
//	experiment harness regenerating every table and figure
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results.
package repro
