// Sampled and checkpointed evaluation entry points: the core-level
// face of internal/sampling and the pipeline checkpoint API, sharing
// schemeConfig with the exact runners so a sampled "twig" estimates
// exactly the run RunScheme("twig") would measure.
package core

import (
	"fmt"

	"twig/internal/exec"
	"twig/internal/pipeline"
	"twig/internal/program"
	"twig/internal/sampling"
)

// RunSchemeSampled estimates one named scheme's evaluation run with
// interval sampling per opts.Sample instead of simulating every
// instruction in detail. The sink and telemetry outputs are ignored —
// sampled runs estimate aggregates, they do not observe event streams
// — but the scheme's ledger span is still recorded so sampled work
// shows up in run ledgers.
func (a *Artifacts) RunSchemeSampled(name string, input int, opts Options) (*sampling.Estimate, error) {
	if !opts.Sample.Enabled() {
		return nil, fmt.Errorf("core: sampled run of %q requested with a disabled sampling spec", name)
	}
	cfg, prog, err := a.schemeConfig(name, opts)
	if err != nil {
		return nil, err
	}
	est, err := sampling.Run(prog, a.Params.InputPhase(input, EvalPhase), cfg, opts.Sample)
	endSchemeSpan(cfg, err)
	return est, err
}

// CheckpointScheme simulates one named scheme up to `at` instructions
// (warmup included: `at` counts from the start of the run, exactly as
// pipeline.Sim.RunTo does) and serializes the full simulator state.
// The checkpoint resumes under the same scheme, options, and input via
// ResumeScheme. Telemetry is stripped: checkpoints capture simulator
// state, not observer state.
func (a *Artifacts) CheckpointScheme(name string, input int, opts Options, at int64) ([]byte, error) {
	sim, _, err := a.schemeSim(name, input, opts)
	if err != nil {
		return nil, err
	}
	if err := sim.RunTo(at); err != nil {
		return nil, err
	}
	return sim.Checkpoint()
}

// ResumeScheme restores a CheckpointScheme checkpoint and runs the
// remainder of the evaluation window, returning the final result. The
// result is bit-identical to an uninterrupted RunScheme under the same
// telemetry-free options.
func (a *Artifacts) ResumeScheme(name string, input int, opts Options, data []byte) (*pipeline.Result, error) {
	cfg, prog, err := a.schemeBareConfig(name, opts)
	if err != nil {
		return nil, err
	}
	src, err := exec.New(prog, a.Params.InputPhase(input, EvalPhase))
	if err != nil {
		return nil, err
	}
	sim, err := pipeline.ResumeSim(prog, src, cfg, data)
	if err != nil {
		return nil, err
	}
	if err := sim.RunTo(cfg.Warmup + cfg.MaxInstructions); err != nil {
		return nil, err
	}
	return sim.Finish()
}

// schemeSim builds a fresh incremental simulator for one named scheme,
// positioned at instruction zero.
func (a *Artifacts) schemeSim(name string, input int, opts Options) (*pipeline.Sim, pipeline.Config, error) {
	cfg, prog, err := a.schemeBareConfig(name, opts)
	if err != nil {
		return nil, pipeline.Config{}, err
	}
	src, err := exec.New(prog, a.Params.InputPhase(input, EvalPhase))
	if err != nil {
		return nil, pipeline.Config{}, err
	}
	sim, err := pipeline.NewSim(prog, src, cfg)
	if err != nil {
		return nil, pipeline.Config{}, err
	}
	return sim, cfg, nil
}

// schemeBareConfig is schemeConfig with telemetry stripped — the
// checkpoint codec refuses telemetry-carrying configurations because
// registry gauges and trace streams are not reconstructible from a
// checkpoint.
func (a *Artifacts) schemeBareConfig(name string, opts Options) (pipeline.Config, *program.Program, error) {
	opts.Telemetry = pipeline.Telemetry{}
	return a.schemeConfig(name, opts)
}
