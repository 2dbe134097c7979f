package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"twig/internal/core"
	"twig/internal/sampling"
	"twig/internal/workload"
)

// Job hashing: a job's content hash is the SHA-256 of a canonical
// textual encoding of everything its result depends on — the simulator
// version, the job's key (which names the application, scheme and
// input), and the full evaluation operating point. The encoding is
// `%+v` over value-only configuration structs, which is deterministic
// across processes and platforms (no pointers, no maps, shortest-
// round-trip float formatting) and automatically changes when a
// configuration field is added — exactly when cached results must be
// invalidated. The golden-fixture test in cache_test.go pins the
// resulting hashes; when it fails, a config struct changed shape and
// SimVersion should be reviewed.

// CanonicalOptions renders the value fields of an evaluation operating
// point deterministically. Non-value fields that cannot influence a
// simulation's Result bytes — the scheme instance (job keys name the
// scheme), the event sink, and telemetry outputs — are excluded (see
// pipeline.Config.Canonical); the epoch length is included because it
// shapes Result.Series. It is read from o.Telemetry, the one a run
// samples at: the core overwrites the machine's own Telemetry with it.
func CanonicalOptions(o core.Options) string {
	s := fmt.Sprintf("pipeline{%s}|epoch=%d|btb{%+v}|opt{%+v}|pbuf=%d|sample=%d|profins=%d",
		o.Pipeline.Canonical(), o.Telemetry.EpochLength, o.BTB, o.Opt, o.PrefetchBuffer, o.SampleRate, o.ProfileInstructions)
	// The interval-sampling spec is appended only when set: exact runs
	// ignore it entirely, and the unconditional rendering would shift
	// every existing content hash, invalidating warm caches wholesale.
	// TestCanonicalOptionsStableWithZeroSample pins this.
	if o.Sample != (sampling.Spec{}) {
		s += fmt.Sprintf("|ivs{%+v}", o.Sample)
	}
	return s
}

// Cacheable reports whether runs under these options may be served
// from the cache: a run with an attached observer (core.Observed) has
// side effects a cache hit would silently skip.
func Cacheable(o core.Options) bool { return !core.Observed(o) }

func hash(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashSim returns the content hash of one evaluation simulation,
// identified by its memo key (e.g. "twig/cassandra/0" or a sweep key
// like "dist30/kafka") under the given operating point.
func HashSim(key string, opts core.Options) string {
	return hash("v1", SimVersion, "sim", key, CanonicalOptions(opts))
}

// SchemeMemoKey returns the canonical memo key for one named scheme's
// evaluation run of (app, input) — the key HashSim content-addresses
// and the runner memoizes under "run/"+key. Its first element is the
// scheme's core.SchemeSpec.MemoPrefix. The key is load-bearing: every
// client that addresses a scheme's result — the experiments Context,
// the twig facade's RunMatrix, and twigd fleet workers — derives it
// here, so their memo entries and cache envelopes interoperate.
func SchemeMemoKey(scheme string, app workload.App, input int) (string, error) {
	spec, err := core.LookupScheme(scheme)
	if err != nil {
		return "", fmt.Errorf("runner: %w", err)
	}
	return fmt.Sprintf("%s/%s/%d", spec.MemoPrefix, app, input), nil
}

// HashProfile returns the content hash of one training profile.
func HashProfile(app workload.App, trainInput int, opts core.Options) string {
	return hash("v1", SimVersion, "profile",
		fmt.Sprintf("%s/%d", app, trainInput), CanonicalOptions(opts))
}

// HashDerived returns the content hash of a derived-statistic job.
func HashDerived(key string, opts core.Options) string {
	return hash("v1", SimVersion, "derived", key, CanonicalOptions(opts))
}

// HashSampled returns the content hash of one interval-sampled
// evaluation. The sampling spec is part of CanonicalOptions (it is
// non-zero whenever a sampled job exists), so distinct specs get
// distinct hashes; the separate stage tag keeps sampled estimates from
// ever colliding with exact results for the same key.
func HashSampled(key string, opts core.Options) string {
	return hash("v1", SimVersion, "sampled", key, CanonicalOptions(opts))
}
