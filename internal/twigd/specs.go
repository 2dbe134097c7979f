package twigd

import (
	"twig/internal/core"
	"twig/internal/workload"
)

// MatrixSpecs builds the fleet job list for an application × scheme ×
// input matrix under one operating point: one job per (app, input)
// point, so each point's schemes run in a single shared-stream pass on
// whichever worker claims it — exactly how the local RunMatrix groups
// them. Empty slices mean all nine
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
				App:     app,
				Input:   input,
				Schemes: append([]string(nil), schemes...),
				Config:  cfg,
			})
		}
	}
	return specs
}
