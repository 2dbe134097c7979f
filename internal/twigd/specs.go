package twigd

import (
	"twig/internal/core"
	"twig/internal/workload"
)

// MatrixSpecs builds the fleet job list for an application × scheme ×
// input matrix under one operating point: one "schemes" job per
// (app, input) point, so each point's schemes run in a single
// shared-stream pass on whichever worker claims it — exactly how the
// local RunMatrix groups them. Empty slices mean all nine
// applications, every scheme in core.SchemeNames, and input 0.
func MatrixSpecs(cfg SimConfig, apps []workload.App, schemes []string, inputs []int) []JobSpec {
	if len(apps) == 0 {
		apps = workload.Apps()
	}
	if len(schemes) == 0 {
		schemes = append([]string(nil), core.SchemeNames...)
	}
	if len(inputs) == 0 {
		inputs = []int{0}
	}
	var specs []JobSpec
	for _, app := range apps {
		for _, input := range inputs {
			specs = append(specs, JobSpec{
				Type:    JobSchemes,
				App:     app,
				Input:   input,
				Schemes: append([]string(nil), schemes...),
				Config:  cfg,
			})
		}
	}
	return specs
}

// SplitSpecs splits one long simulation parallel-in-time across the
// fleet: a "checkpoint" job simulates the first `at` instructions and
// publishes the serialized simulator state, and a "resume" job —
// gated on the checkpoint's blob via WaitFor, so it occupies no
// worker while waiting — restores it and publishes the final result.
// The result is bit-identical to an uninterrupted run (the resume
// path's cache entry is the plain HashSim entry every other consumer
// addresses), so splitting is invisible to everyone downstream.
func SplitSpecs(cfg SimConfig, app workload.App, scheme string, input int, at int64) ([]JobSpec, error) {
	ckpt := JobSpec{
		Type:   JobCheckpoint,
		App:    app,
		Input:  input,
		Scheme: scheme,
		At:     at,
		Config: cfg,
	}
	hashes, err := ckpt.ResultHashes()
	if err != nil {
		return nil, err
	}
	resume := JobSpec{
		Type:    JobResume,
		App:     app,
		Input:   input,
		Scheme:  scheme,
		At:      at,
		Config:  cfg,
		WaitFor: hashes,
	}
	return []JobSpec{ckpt, resume}, nil
}
