package pipeline

import (
	"fmt"
	"sync"

	"twig/internal/exec"
	"twig/internal/program"
	"twig/internal/stepcast"
)

// RunGroup simulates several configurations — typically one per scheme
// — over a single shared generation of the input's instruction stream:
// one executor feeds a stepcast broadcast ring, and each configuration
// consumes the identical stream on its own goroutine. Results match
// running each configuration through Run individually bit for bit
// (every consumer observes the same batches the scalar path would
// produce), but the interpreter cost is paid once instead of len(cfgs)
// times and the schemes overlap across cores.
//
// All configurations must agree on MaxInstructions and Warmup (they
// share one stream, so they must consume the same number of steps),
// and must not share mutable state: a Sink or Telemetry output
// attached to several members would be invoked from concurrent
// goroutines. Callers with observers should fall back to sequential
// Run calls — core.RunSchemes does exactly that gating.
func RunGroup(p *program.Program, in exec.Input, cfgs []Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	ex, err := exec.New(p, in)
	if err != nil {
		return nil, err
	}
	return RunGroupSource(p, ex, cfgs)
}

// RunGroupSource is RunGroup from an arbitrary step source. The
// broadcaster owns src: it may pull a partial batch beyond what the
// simulations consume, so src's post-run state is unspecified — hand
// it a dedicated executor or trace reader.
func RunGroupSource(p *program.Program, src exec.Source, cfgs []Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	if len(cfgs) == 1 {
		res, err := RunSource(p, src, cfgs[0])
		if err != nil {
			return nil, err
		}
		return []*Result{res}, nil
	}
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].MaxInstructions != cfgs[0].MaxInstructions || cfgs[i].Warmup != cfgs[0].Warmup {
			return nil, fmt.Errorf("pipeline: grouped configs disagree on stream length: cfg[%d] wants %d+%d, cfg[0] wants %d+%d",
				i, cfgs[i].Warmup, cfgs[i].MaxInstructions, cfgs[0].Warmup, cfgs[0].MaxInstructions)
		}
	}

	// The producer's ledger span hangs under the first config's span:
	// the stream is shared by the whole group, and member order is
	// deterministic, so the first member stands for the group.
	bc := stepcast.New(stepcast.Options{BatchLen: batchSlab, Span: cfgs[0].Telemetry.Span})
	consumers := make([]*stepcast.Consumer, len(cfgs))
	for i := range cfgs {
		consumers[i] = bc.Subscribe()
	}
	bc.Start(src)

	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer consumers[i].Close()
			results[i], errs[i] = RunSource(p, consumers[i], cfgs[i])
		}(i)
	}
	wg.Wait()
	// All consumers closed above, so the producer is already shutting
	// down; Stop is belt and braces for the error paths, and Wait
	// guarantees no goroutine outlives the call.
	bc.Stop()
	bc.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: grouped run %d: %w", i, err)
		}
	}
	return results, nil
}
