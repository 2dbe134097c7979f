package core

import (
	"fmt"

	"twig/internal/btb"
	"twig/internal/pipeline"
	"twig/internal/prefetcher"
)

// SchemeSpec is one named frontend scheme: everything any layer needs
// to run it, address its results, and check them. Adding a scheme is
// adding one entry to Schemes (see SCHEMES.md).
type SchemeSpec struct {
	// Name is the scheme's public name: RunScheme, the facade's
	// System.Run, the -scheme flags and figure columns use it.
	Name string
	// MemoPrefix is the first element of the scheme's runner memo keys
	// (runner.SchemeMemoKey), and through them of its result-cache
	// content hashes. It never changes once results exist: renaming it
	// orphans every cached result of the scheme.
	MemoPrefix string
	// Optimized runs the Twig-optimized binary (Artifacts.Optimized)
	// instead of the profiled original (Artifacts.Program).
	Optimized bool
	// BoundedByBaseline binds check.CrossScheme's structural law: the
	// scheme's direct BTB misses, per kind and in aggregate, never
	// exceed the baseline's. Set it only for a scheme that drives its
	// main BTB with exactly the baseline's lookup and resolve-fill
	// stream and adds structures that can only turn misses into hits.
	BoundedByBaseline bool
	// Setup installs the scheme into a machine configuration that is
	// already specialized to the application: it sets cfg.Scheme, built
	// from opts (opts.BTB is the baseline BTB geometry), plus any
	// machine override the scheme's published configuration carries.
	Setup func(cfg *pipeline.Config, opts Options)
}

// Schemes is the scheme table, in the conventional reporting order.
// Every name-keyed lookup in the repository reads it.
var Schemes = []SchemeSpec{
	{Name: "baseline", MemoPrefix: "base", Setup: func(cfg *pipeline.Config, opts Options) {
		cfg.Scheme = prefetcher.NewBaseline(opts.BTB, 0, false)
	}},
	{Name: "ideal", MemoPrefix: "ideal", Setup: func(cfg *pipeline.Config, _ Options) {
		cfg.Scheme = prefetcher.NewIdeal()
	}},
	// Twig: the baseline BTB plus the architectural prefetch buffer fed
	// by the injected brprefetch/brcoalesce instructions.
	{Name: "twig", MemoPrefix: "twig", Optimized: true, Setup: func(cfg *pipeline.Config, opts Options) {
		cfg.Scheme = prefetcher.NewBaseline(opts.BTB, opts.PrefetchBuffer, false)
	}},
	{Name: "shotgun", MemoPrefix: "shotgun", Setup: func(cfg *pipeline.Config, _ Options) {
		// Shotgun's published configuration includes its 1536-entry RAS.
		cfg.RASEntries = 1536
		cfg.Scheme = prefetcher.NewShotgun(prefetcher.DefaultShotgunConfig())
	}},
	{Name: "confluence", MemoPrefix: "confluence", Setup: func(cfg *pipeline.Config, opts Options) {
		ccfg := prefetcher.DefaultConfluenceConfig()
		ccfg.BTB = opts.BTB
		cfg.Scheme = prefetcher.NewConfluence(ccfg)
	}},
	// The two-level Micro BTB hierarchy: opts.BTB as the L1, backed by
	// the default last level.
	{Name: "hierarchy", MemoPrefix: "hierarchy", BoundedByBaseline: true, Setup: func(cfg *pipeline.Config, opts Options) {
		hcfg := btb.DefaultHierarchyConfig()
		hcfg.L1 = opts.BTB
		cfg.Scheme = prefetcher.NewHierarchy(hcfg)
	}},
	// Shadow branches: opts.BTB as the main BTB, with the default shadow
	// branch buffer.
	{Name: "shadow", MemoPrefix: "shadow", BoundedByBaseline: true, Setup: func(cfg *pipeline.Config, opts Options) {
		scfg := prefetcher.DefaultShadowConfig()
		scfg.BTB = opts.BTB
		cfg.Scheme = prefetcher.NewShadow(scfg)
	}},
}

// SchemeNames lists the names of Schemes, in table order.
var SchemeNames = schemeNames()

func schemeNames() []string {
	names := make([]string, len(Schemes))
	for i, s := range Schemes {
		names[i] = s.Name
	}
	return names
}

// LookupScheme returns the table entry for one named scheme, or an
// error naming the known schemes.
func LookupScheme(name string) (SchemeSpec, error) {
	for _, s := range Schemes {
		if s.Name == name {
			return s, nil
		}
	}
	return SchemeSpec{}, fmt.Errorf("unknown scheme %q (known: %v)", name, SchemeNames)
}
