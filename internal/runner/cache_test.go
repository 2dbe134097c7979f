package runner

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twig/internal/core"
	"twig/internal/pipeline"
	"twig/internal/sampling"
	"twig/internal/telemetry"
)

// Golden content hashes under core.DefaultOptions(). These pin the
// cross-process stability of the cache key: the same job spec must
// produce the same hash in every build on every platform, or persistent
// cache entries written by one binary would be invisible to the next.
// When this test fails, a configuration struct changed shape (which
// correctly invalidates old entries) — update the fixtures and review
// whether SimVersion should be bumped too.
const (
	goldenSimHash     = "707b1b5ce784d39978fd02f7dd1f8bbeed58a1b606d0767429a31618451081fd"
	goldenProfileHash = "bf29fcb23123485cae08a1d01eaf3db2c5d3fd88b803066a9f854abfaf3d135a"
	goldenDerivedHash = "f4416527d1e532d79295b01cd1c0d9234fb67a8d319081ee052a569d9ab087cb"
)

func TestGoldenHashes(t *testing.T) {
	o := core.DefaultOptions()
	if h := HashSim("twig/cassandra/0", o); h != goldenSimHash {
		t.Errorf("HashSim = %s, want %s", h, goldenSimHash)
	}
	if h := HashProfile("kafka", 0, o); h != goldenProfileHash {
		t.Errorf("HashProfile = %s, want %s", h, goldenProfileHash)
	}
	if h := HashDerived("3c/drupal/8192x4", o); h != goldenDerivedHash {
		t.Errorf("HashDerived = %s, want %s", h, goldenDerivedHash)
	}
	// Scheme memo keys seed HashSim for every scheme run, so they are
	// part of the same warm-cache contract; "baseline" keeps "base".
	for _, c := range []struct{ scheme, key string }{
		{"baseline", "base/kafka/2"},
		{"ideal", "ideal/kafka/2"},
		{"twig", "twig/kafka/2"},
		{"shotgun", "shotgun/kafka/2"},
		{"confluence", "confluence/kafka/2"},
		{"hierarchy", "hierarchy/kafka/2"},
		{"shadow", "shadow/kafka/2"},
	} {
		if key, err := SchemeMemoKey(c.scheme, "kafka", 2); err != nil || key != c.key {
			t.Errorf("SchemeMemoKey(%q) = %q, %v; want %q", c.scheme, key, err, c.key)
		}
	}
	if key, err := SchemeMemoKey("warp-drive", "kafka", 2); err == nil {
		t.Errorf("SchemeMemoKey accepted an unknown scheme: %q", key)
	}
}

func TestHashSensitivity(t *testing.T) {
	o := core.DefaultOptions()
	base := HashSim("twig/cassandra/0", o)
	if HashSim("twig/cassandra/1", o) == base {
		t.Error("different keys must hash differently")
	}
	o2 := o
	o2.BTB.Entries = 1024
	if HashSim("twig/cassandra/0", o2) == base {
		t.Error("different BTB geometry must hash differently")
	}
	o3 := o
	o3.Pipeline.MaxInstructions++
	if HashSim("twig/cassandra/0", o3) == base {
		t.Error("different window must hash differently")
	}
	if HashDerived("twig/cassandra/0", o) == base {
		t.Error("sim and derived namespaces must not collide")
	}
}

// TestCanonicalOptionsStableWithZeroSample pins that adding the
// sampling spec to core.Options did not shift existing content hashes:
// a zero-valued Sample renders exactly as before the field existed, so
// warm caches written by older binaries stay valid. (The golden
// fixtures above enforce the same property end to end; this test pins
// the mechanism so the next new Options field copies it.)
func TestCanonicalOptionsStableWithZeroSample(t *testing.T) {
	o := core.DefaultOptions()
	if s := CanonicalOptions(o); strings.Contains(s, "ivs{") {
		t.Errorf("zero-valued Sample leaked into the canonical encoding: %s", s)
	}
	withSpec := o
	withSpec.Sample = sampling.Spec{Interval: 10_000, Period: 4}
	if s := CanonicalOptions(withSpec); !strings.Contains(s, "ivs{") {
		t.Errorf("non-zero Sample missing from the canonical encoding: %s", s)
	}
	if HashSim("twig/cassandra/0", o) == HashSim("twig/cassandra/0", withSpec) {
		t.Error("sampling spec must reach the content hash")
	}
	if HashSampled("sampled/twig/cassandra/0", withSpec) == HashSim("sampled/twig/cassandra/0", withSpec) {
		t.Error("sampled and sim namespaces must not collide")
	}
	seeded := withSpec
	seeded.Sample.Seed = 1
	if HashSampled("sampled/twig/cassandra/0", withSpec) == HashSampled("sampled/twig/cassandra/0", seeded) {
		t.Error("different interval-selection seeds must hash differently")
	}
}

func TestCacheableRejectsTelemetry(t *testing.T) {
	o := core.DefaultOptions()
	if !Cacheable(o) {
		t.Fatal("default options must be cacheable")
	}
	o.Telemetry.Registry = telemetry.NewRegistry()
	if Cacheable(o) {
		t.Fatal("options with a metrics registry must not be cacheable")
	}
	o = core.DefaultOptions()
	o.Telemetry.Tracer = telemetry.NewTracer(io.Discard)
	if Cacheable(o) {
		t.Fatal("options with a tracer must not be cacheable")
	}
	o = core.DefaultOptions()
	o.Pipeline.Sink = telemetry.NopSink{}
	if Cacheable(o) {
		t.Fatal("options with an event sink must not be cacheable")
	}
	o = core.DefaultOptions()
	o.Telemetry.EpochLength = 10_000
	if !Cacheable(o) {
		t.Fatal("an epoch length alone must stay cacheable")
	}
	if HashSim("twig/cassandra/0", o) == HashSim("twig/cassandra/0", core.DefaultOptions()) {
		t.Fatal("the epoch length a run samples at must reach the content hash")
	}
}

func TestCacheDiskRoundtrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := &pipeline.Result{Original: 1000, Cycles: 1234.5, ICacheMisses: 7}
	h := hash("roundtrip")
	c1.Put(h, ResultCodec{}, res)

	// A fresh Cache over the same directory has a cold memory tier, so
	// this exercises the disk path end to end.
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Get(h, ResultCodec{})
	if !ok {
		t.Fatal("disk entry not found")
	}
	got := v.(*pipeline.Result)
	if got.Original != res.Original || got.Cycles != res.Cycles || got.ICacheMisses != res.ICacheMisses {
		t.Fatalf("got %+v, want %+v", got, res)
	}
	if c2.stats.DiskHits.Load() != 1 {
		t.Fatalf("disk hits = %d, want 1", c2.stats.DiskHits.Load())
	}
	// The disk hit was promoted: the second read hits memory.
	if _, ok := c2.Get(h, ResultCodec{}); !ok {
		t.Fatal("promoted entry missing")
	}
	if c2.stats.MemHits.Load() != 1 {
		t.Fatalf("mem hits = %d, want 1", c2.stats.MemHits.Load())
	}
}

func TestCorruptEntryEvictedNotFatal(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hash("corrupt")
	p := c.path(h)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h, ResultCodec{}); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	if c.stats.CorruptEvicted.Load() != 1 {
		t.Fatalf("corrupt evicted = %d, want 1", c.stats.CorruptEvicted.Load())
	}
}

func TestTruncatedEntryEvicted(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hash("truncated")
	c.Put(h, ResultCodec{}, &pipeline.Result{Original: 5})
	p := c.path(h)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(h, ResultCodec{}); ok {
		t.Fatal("truncated entry served as a hit")
	}
	if c2.stats.CorruptEvicted.Load() != 1 {
		t.Fatalf("corrupt evicted = %d, want 1", c2.stats.CorruptEvicted.Load())
	}
}

func TestStaleVersionEvicted(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hash("stale")
	payload, _ := json.Marshal(&pipeline.Result{Original: 9})
	data, err := json.Marshal(envelope{
		Format:  FormatVersion,
		Sim:     "twig-sim-0-ancient",
		Codec:   ResultCodec{}.Name(),
		Hash:    h,
		Payload: payload,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := c.path(h)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(h, ResultCodec{}); ok {
		t.Fatal("stale-version entry served as a hit")
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatal("stale entry not removed")
	}
	if c.stats.StaleEvicted.Load() != 1 {
		t.Fatalf("stale evicted = %d, want 1 (got corrupt=%d)", c.stats.StaleEvicted.Load(), c.stats.CorruptEvicted.Load())
	}
}

func TestCodecMismatchIsStale(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hash("codec-mismatch")
	c.Put(h, JSONCodec[int]{}, 3)
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(h, ResultCodec{}); ok {
		t.Fatal("entry decoded with the wrong codec")
	}
	if c2.stats.StaleEvicted.Load() != 1 {
		t.Fatalf("stale evicted = %d, want 1", c2.stats.StaleEvicted.Load())
	}
}

func TestHashFieldMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	good := hash("good")
	c.Put(good, JSONCodec[int]{}, 1)
	// Copy the entry under a different hash's path: the embedded hash no
	// longer matches the entry name.
	other := hash("other")
	data, err := os.ReadFile(c.path(good))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(c.path(other)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(other), data, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(other, JSONCodec[int]{}); ok {
		t.Fatal("misfiled entry served as a hit")
	}
	if c2.stats.CorruptEvicted.Load() != 1 {
		t.Fatalf("corrupt evicted = %d, want 1", c2.stats.CorruptEvicted.Load())
	}
}

func TestMemoryLRUEviction(t *testing.T) {
	c, err := OpenCache("", 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(hash("a"), JSONCodec[int]{}, 1)
	c.Put(hash("b"), JSONCodec[int]{}, 2)
	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get(hash("a"), JSONCodec[int]{}); !ok {
		t.Fatal("a missing")
	}
	c.Put(hash("c"), JSONCodec[int]{}, 3)
	if got := c.MemLen(); got != 2 {
		t.Fatalf("mem entries = %d, want 2", got)
	}
	if _, ok := c.Get(hash("b"), JSONCodec[int]{}); ok {
		t.Fatal("LRU victim b still present")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(hash(k), JSONCodec[int]{}); !ok {
			t.Fatalf("%s evicted, want kept", k)
		}
	}
}

func TestMemoryOnlyCache(t *testing.T) {
	c, err := OpenCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := hash("mem-only")
	c.Put(h, JSONCodec[string]{}, "v")
	if v, ok := c.Get(h, JSONCodec[string]{}); !ok || v.(string) != "v" {
		t.Fatalf("got %v, %v", v, ok)
	}
	if c.Dir() != "" {
		t.Fatal("memory-only cache has a dir")
	}
}

func TestEnvelopeRejectsUnknownFields(t *testing.T) {
	type point struct{ X, Y int }
	data := []byte(`{"X":1,"Y":2,"Extra":"field"}`)
	codec := JSONCodec[point]{}
	if _, err := codec.Decode(data); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestStaleErrorMessage(t *testing.T) {
	err := staleError{"format 0, want 1"}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("got %q", err.Error())
	}
}
