package platinum

import (
	"io"

	"platinum/internal/apps"
	"platinum/internal/baseline"
	"platinum/internal/exp"
)

// This file exposes the paper's applications, baselines, and experiment
// harness through the public API, so downstream users (and the examples)
// can rerun the evaluation without reaching into internal packages.

// Application configurations and results.
type (
	// GaussConfig parameterizes Gaussian elimination (§5.1).
	GaussConfig = apps.GaussConfig
	// GaussResult reports a Gaussian elimination run.
	GaussResult = apps.GaussResult
	// MergeSortConfig parameterizes the tree merge sort (§5.2).
	MergeSortConfig = apps.MergeSortConfig
	// MergeSortResult reports a merge sort run.
	MergeSortResult = apps.MergeSortResult
	// BackpropConfig parameterizes the backpropagation simulator (§5.3).
	BackpropConfig = apps.BackpropConfig
	// BackpropResult reports a backprop run.
	BackpropResult = apps.BackpropResult
	// AnecdoteConfig parameterizes the §4.2 frozen-page workload.
	AnecdoteConfig = apps.AnecdoteConfig
	// AnecdoteResult reports an anecdote run.
	AnecdoteResult = apps.AnecdoteResult

	// Platform abstracts the machine a portable program runs on.
	Platform = apps.Platform
	// Env is the machine-neutral thread interface portable programs use.
	Env = apps.Env
	// PlatinumPlatform runs programs on a PLATINUM kernel.
	PlatinumPlatform = apps.PlatinumPlatform
	// UMAPlatform runs programs on the Sequent-class UMA machine.
	UMAPlatform = apps.UMAPlatform
)

// DefaultGaussConfig returns the paper-shaped configuration for an n×n
// matrix on the given thread count.
func DefaultGaussConfig(n, threads int) GaussConfig {
	return apps.DefaultGaussConfig(n, threads)
}

// DefaultMergeSortConfig returns a 64K-word sort on the given threads.
func DefaultMergeSortConfig(threads int) MergeSortConfig {
	return apps.DefaultMergeSortConfig(threads)
}

// DefaultBackpropConfig returns the paper's 40-unit encoder network.
func DefaultBackpropConfig(threads int) BackpropConfig {
	return apps.DefaultBackpropConfig(threads)
}

// DefaultAnecdoteConfig returns the §4.2 workload.
func DefaultAnecdoteConfig(threads int) AnecdoteConfig {
	return apps.DefaultAnecdoteConfig(threads)
}

// NewPlatinumPlatform boots a kernel and wraps it as a Platform.
func NewPlatinumPlatform(cfg Config) (*PlatinumPlatform, error) {
	return apps.NewPlatinumPlatform(cfg)
}

// NewUMAPlatform builds the Sequent Symmetry (model A)-class machine
// as a Platform.
func NewUMAPlatform() *UMAPlatform { return apps.NewUMAPlatform() }

// UniformSystemConfig returns a kernel configuration modeling the
// Uniform System baseline (static placement, no data movement).
func UniformSystemConfig() Config { return baseline.UniformSystemConfig() }

// RunGaussPlatinum runs shared-memory Gaussian elimination on coherent
// memory.
func RunGaussPlatinum(pl *PlatinumPlatform, cfg GaussConfig) (GaussResult, error) {
	return apps.RunGaussPlatinum(pl, cfg)
}

// RunGaussUniform runs the same program with static scattered placement.
func RunGaussUniform(pl *PlatinumPlatform, cfg GaussConfig) (GaussResult, error) {
	return apps.RunGaussUniform(pl, cfg)
}

// RunGaussSMP runs the message-passing variant over ports.
func RunGaussSMP(pl *PlatinumPlatform, cfg GaussConfig) (GaussResult, error) {
	return apps.RunGaussSMP(pl, cfg)
}

// GaussReferenceChecksum returns the sequential reference checksum for
// cross-validating simulated runs.
func GaussReferenceChecksum(cfg GaussConfig) uint32 {
	return apps.GaussReferenceChecksum(cfg)
}

// RunMergeSort runs the tree merge sort on any platform.
func RunMergeSort(pl Platform, cfg MergeSortConfig) (MergeSortResult, error) {
	return apps.RunMergeSort(pl, cfg)
}

// RunBackprop trains the encoder network on any platform.
func RunBackprop(pl Platform, cfg BackpropConfig) (BackpropResult, error) {
	return apps.RunBackprop(pl, cfg)
}

// RunAnecdote runs the §4.2 frozen-page workload.
func RunAnecdote(cfg AnecdoteConfig) (AnecdoteResult, error) {
	return apps.RunAnecdote(cfg)
}

// Experiment access: RunExperiment regenerates one of the paper's
// tables or figures (see ExperimentIDs) and writes it to w.
func RunExperiment(id string, quick bool, w io.Writer) error {
	e, ok := exp.Find(id)
	if !ok {
		return &UnknownExperimentError{ID: id}
	}
	tab, err := e.Run(exp.Options{Quick: quick})
	if err != nil {
		return err
	}
	_, err = tab.WriteTo(w)
	return err
}

// ExperimentIDs lists the available experiments with their paper
// references.
func ExperimentIDs() map[string]string {
	out := make(map[string]string)
	for _, e := range exp.All() {
		out[e.ID] = e.Paper
	}
	return out
}

// UnknownExperimentError reports a bad experiment id.
type UnknownExperimentError struct{ ID string }

func (e *UnknownExperimentError) Error() string {
	return "platinum: unknown experiment " + e.ID
}

// Message passing (the SMP baseline's library, usable by programs too).
type (
	// Mesh is an n-way set of pairwise ports with tree broadcast.
	Mesh = baseline.Mesh
)

// NewMesh builds the n² pairwise ports of an n-member message mesh.
func NewMesh(k *Kernel, name string, n int) (*Mesh, error) {
	return baseline.NewMesh(k, name, n)
}
