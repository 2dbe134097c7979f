package pipeline

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twig/internal/btb"
	"twig/internal/prefetcher"
	"twig/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// TestResultGolden pins every field of plain Run results on the
// wordpress binary, one run per scheme built here without core. The
// trace golden sees events, not the clock chain's accumulators, so a
// fault in how a run sums BPU wait, stall or miss-lead cycles would
// otherwise fail only core's checkpoint golden. Floats are pinned by
// their bits. A deliberate change to the timing model, a scheme or
// the workload generator moves these lines; regenerate them and say
// why in the change (`go test ./internal/pipeline -run ResultGolden
// -update` rewrites the file).
func TestResultGolden(t *testing.T) {
	params, err := workload.ParamsFor(workload.WordPress)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, tc := range []struct {
		name   string
		scheme func() prefetcher.Scheme
	}{
		{"baseline", func() prefetcher.Scheme { return prefetcher.NewBaseline(btb.Config{Entries: 1024, Ways: 4}, 0, false) }},
		{"ideal", func() prefetcher.Scheme { return prefetcher.NewIdeal() }},
		{"shotgun", func() prefetcher.Scheme { return prefetcher.NewShotgun(prefetcher.DefaultShotgunConfig()) }},
	} {
		cfg := testConfig(60_000)
		cfg.BackendCPI = params.BackendCPI
		cfg.CondMispredictRate = params.CondMispredictRate
		cfg.Warmup = 20_000
		cfg.Scheme = tc.scheme()
		res, err := Run(p, params.InputPhase(0, 1), cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&got, "== %s\n", tc.name)
		renderFields(&got, "", reflect.ValueOf(*res))
	}
	path := filepath.Join("testdata", "result.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("results differ from %s\ngot:\n%s\nwant:\n%s", path, got.String(), want)
	}
}

// renderFields writes one "path=value" line per leaf of v: integers in
// decimal, floats as their IEEE-754 bits, arrays element by element. A
// kind it cannot pin exactly panics, so a new field of another kind
// cannot slip past the golden.
func renderFields(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			renderFields(b, name, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			renderFields(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(b, "%s=%d\n", path, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(b, "%s=%016x\n", path, math.Float64bits(v.Float()))
	case reflect.Pointer:
		if !v.IsNil() {
			panic(fmt.Sprintf("%s: non-nil pointer field", path))
		}
		fmt.Fprintf(b, "%s=nil\n", path)
	default:
		panic(fmt.Sprintf("%s: cannot pin a %s field", path, v.Kind()))
	}
}
