package runner

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"twig/internal/check"
	"twig/internal/core"
	"twig/internal/workload"
)

// simMatrix runs a small scheme×app matrix through a runner with the
// given worker count and returns each simulation's Result serialized
// with the cache codec — the byte-level identity the determinism oracle
// compares. Every run is additionally verified against the
// internal/check recorder laws, so a scheduling-dependent bug would
// surface as a law violation even before the byte comparison.
func simMatrix(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Pipeline.MaxInstructions = 200_000
	opts.Pipeline.Warmup = 100_000
	r := New(Options{Workers: workers})
	apps := []workload.App{workload.Cassandra, workload.Kafka}
	schemes := []string{"baseline", "twig", "shotgun"}

	type outcome struct {
		key  string
		data []byte
		err  error
	}
	var jobs []*Job
	var keys []string
	for _, app := range apps {
		art := ArtifactsJob(app, 0, opts, "")
		for _, name := range schemes {
			key := fmt.Sprintf("%s/%s", name, app)
			keys = append(keys, key)
			jobs = append(jobs, &Job{
				ID:   "run/" + key,
				Kind: KindSim,
				Deps: []*Job{art},
				Run: func(_ context.Context, deps []any) (any, error) {
					o := opts
					rec := check.Attach(&o.Pipeline)
					res, err := deps[0].(*core.Artifacts).RunScheme(name, 0, o)
					if err != nil {
						return nil, err
					}
					if err := rec.Verify(res); err != nil {
						return nil, fmt.Errorf("check: %w", err)
					}
					return res, nil
				},
			})
		}
	}
	out := make(map[string][]byte, len(jobs))
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j *Job, key string) {
			defer wg.Done()
			v, err := r.Result(context.Background(), j)
			if err != nil {
				results[i] = outcome{key: key, err: err}
				return
			}
			data, err := (ResultCodec{}).Encode(v)
			results[i] = outcome{key: key, data: data, err: err}
		}(i, j, keys[i])
	}
	wg.Wait()
	for _, o := range results {
		if o.err != nil {
			t.Fatalf("%s: %v", o.key, o.err)
		}
		out[o.key] = o.data
	}
	return out
}

// TestParallelDeterminism is the oracle for the runner's core promise:
// per-job Results are byte-identical whether the matrix runs serially
// or on eight workers.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several windows")
	}
	serial := simMatrix(t, 1)
	parallel := simMatrix(t, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("job sets differ: %d vs %d", len(serial), len(parallel))
	}
	for key, want := range serial {
		got, ok := parallel[key]
		if !ok {
			t.Errorf("%s missing from parallel run", key)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: parallel result differs from serial (%d vs %d bytes)", key, len(got), len(want))
		}
	}
}
