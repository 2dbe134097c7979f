package runner

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"twig/internal/telemetry"
)

// CacheDirEnv is the environment variable naming the default on-disk
// cache location; flags and Config fields override it.
const CacheDirEnv = "TWIG_CACHE_DIR"

// DefaultCacheDir returns $TWIG_CACHE_DIR ("" disables the disk tier).
func DefaultCacheDir() string { return os.Getenv(CacheDirEnv) }

// DefaultMemEntries bounds the in-memory LRU tier when OpenCache is
// given no explicit capacity.
const DefaultMemEntries = 1024

// Cache is the content-addressed result cache: an in-memory LRU of
// decoded payloads over an on-disk store of versioned envelopes keyed
// by job hash, optionally backed by a shared remote blob store
// (SetRemote) that a whole fleet reads and writes. All methods are
// safe for concurrent use.
//
// The disk tier is self-healing: entries that fail to decode (truncated
// writes, bit rot) and entries written under a different format or
// simulator version are evicted on read and treated as misses, never
// as errors. The remote tier is zero-trust: entries are re-validated
// on arrival and rejected (not evicted — the store is shared) when
// they fail to decode.
type Cache struct {
	dir string // "" = no disk tier
	cap int

	remote        RemoteCache // nil = no remote tier
	remoteRetry   Backoff
	remoteRetries int

	mu  sync.Mutex
	mem map[string]*list.Element
	lru *list.List // front = most recently used

	stats cacheCounters
}

type cacheCounters struct {
	MemHits        atomic.Int64
	DiskHits       atomic.Int64
	Misses         atomic.Int64
	Stores         atomic.Int64
	StoreErrors    atomic.Int64
	CorruptEvicted atomic.Int64
	StaleEvicted   atomic.Int64

	RemoteHits        atomic.Int64
	RemoteMisses      atomic.Int64
	RemoteStores      atomic.Int64
	RemoteStoreErrors atomic.Int64
	RemoteErrors      atomic.Int64
	RemoteCorrupt     atomic.Int64
	RemoteRetries     atomic.Int64
}

type memEntry struct {
	hash string
	val  any
}

// OpenCache returns a cache rooted at dir (created if missing; "" for
// a memory-only cache) holding at most memEntries decoded payloads in
// the LRU tier (<= 0 means DefaultMemEntries).
func OpenCache(dir string, memEntries int) (*Cache, error) {
	if memEntries <= 0 {
		memEntries = DefaultMemEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: creating cache dir: %w", err)
		}
	}
	return &Cache{
		dir: dir,
		cap: memEntries,
		mem: make(map[string]*list.Element),
		lru: list.New(),
	}, nil
}

// Dir returns the disk tier's root ("" when memory-only).
func (c *Cache) Dir() string { return c.dir }

// path maps a hash to its entry file, sharded by the first byte to
// keep directories small under heavy sweep traffic.
func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash[:2], hash+".json")
}

// Get returns the cached payload for hash, consulting the memory tier,
// then the disk tier, then the remote tier when one is attached
// (promoting lower-tier hits upward). Undecodable and
// version-mismatched disk entries are removed and reported as misses;
// undecodable remote entries are rejected and reported as misses.
func (c *Cache) Get(hash string, codec Codec) (any, bool) {
	return c.GetTraced(hash, codec, nil)
}

// GetTraced is Get with span structure: the disk tier's envelope
// decode is recorded as a "decode" child of probe (which may be nil —
// span methods no-op on nil), a remote probe as a "remote.fetch"
// child, and probe gains a "tier" attribute naming where the lookup
// resolved (mem, disk, remote, or miss).
func (c *Cache) GetTraced(hash string, codec Codec, probe *telemetry.Span) (any, bool) {
	if v, ok := c.memGet(hash); ok {
		c.stats.MemHits.Add(1)
		probe.AttrStr("tier", "mem")
		return v, true
	}
	if v, ok := c.diskGet(hash, codec, probe); ok {
		c.stats.DiskHits.Add(1)
		probe.AttrStr("tier", "disk")
		c.memPut(hash, v)
		return v, true
	}
	if v, ok := c.remoteGet(hash, codec, probe); ok {
		c.stats.RemoteHits.Add(1)
		probe.AttrStr("tier", "remote")
		c.memPut(hash, v)
		return v, true
	}
	c.stats.Misses.Add(1)
	probe.AttrStr("tier", "miss")
	return nil, false
}

// diskGet probes the disk tier, evicting entries that fail to decode.
func (c *Cache) diskGet(hash string, codec Codec, probe *telemetry.Span) (any, bool) {
	if c.dir == "" || len(hash) < 2 {
		return nil, false
	}
	data, err := os.ReadFile(c.path(hash))
	if err != nil {
		return nil, false
	}
	dec := probe.Child("decode", "cache")
	v, err := decodeEntry(data, hash, codec)
	dec.AttrInt("bytes", int64(len(data)))
	dec.AttrBool("ok", err == nil)
	dec.End()
	if err != nil {
		if _, stale := err.(staleError); stale {
			c.stats.StaleEvicted.Add(1)
		} else {
			c.stats.CorruptEvicted.Add(1)
		}
		os.Remove(c.path(hash))
		return nil, false
	}
	return v, true
}

// Put stores the payload in every attached tier. Disk writes are
// atomic (temp file + rename) so a crashed or concurrent writer can
// never leave a partially written entry under the final name; disk and
// remote failures are recorded but non-fatal (the cache is an
// accelerator, not a correctness dependency).
func (c *Cache) Put(hash string, codec Codec, v any) {
	c.memPut(hash, v)
	if (c.dir == "" && c.remote == nil) || len(hash) < 2 {
		return
	}
	data, err := encodeEntry(hash, codec, v)
	if err != nil {
		c.stats.StoreErrors.Add(1)
		return
	}
	if c.dir != "" {
		if err := c.writeDisk(hash, data); err != nil {
			c.stats.StoreErrors.Add(1)
		} else {
			c.stats.Stores.Add(1)
		}
	}
	c.remoteStore(hash, data)
}

// writeDisk atomically writes one encoded envelope under its entry
// path.
func (c *Cache) writeDisk(hash string, data []byte) error {
	final := c.path(hash)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(final), "tmp-*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func (c *Cache) memGet(hash string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.mem[hash]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(memEntry).val, true
}

func (c *Cache) memPut(hash string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.mem[hash]; ok {
		c.lru.MoveToFront(el)
		el.Value = memEntry{hash, v}
		return
	}
	c.mem[hash] = c.lru.PushFront(memEntry{hash, v})
	for len(c.mem) > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.mem, oldest.Value.(memEntry).hash)
	}
}

// WalkEntry describes one on-disk cache envelope seen by Walk.
type WalkEntry struct {
	// Hash is the entry's content hash (from the envelope when it
	// decodes, from the filename otherwise).
	Hash string
	// Codec names the payload type ("result", "profile", ...); empty
	// for undecodable entries.
	Codec string
	// Sim is the simulator version the entry was written under; Stale
	// marks a format or simulator generation mismatch with this binary.
	Sim   string
	Stale bool
	// Bytes is the envelope file size.
	Bytes int64
	// Err is non-nil for entries whose envelope frame does not parse.
	Err error
}

// Walk enumerates every envelope in the disk tier in deterministic
// (lexical path) order, calling fn once per entry; a non-nil return
// from fn stops the walk and is returned. Only the envelope frame is
// decoded — payloads are not validated — so walking a large cache is
// cheap. A memory-only cache walks nothing.
func (c *Cache) Walk(fn func(WalkEntry) error) error {
	if c.dir == "" {
		return nil
	}
	return filepath.WalkDir(c.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		e := WalkEntry{Hash: strings.TrimSuffix(filepath.Base(path), ".json")}
		if info, ierr := d.Info(); ierr == nil {
			e.Bytes = info.Size()
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			e.Err = rerr
			return fn(e)
		}
		var env envelope
		if jerr := json.Unmarshal(data, &env); jerr != nil {
			e.Err = fmt.Errorf("corrupt envelope: %w", jerr)
			return fn(e)
		}
		if env.Hash != "" {
			e.Hash = env.Hash
		}
		e.Codec = env.Codec
		e.Sim = env.Sim
		e.Stale = env.Format != FormatVersion || env.Sim != SimVersion
		return fn(e)
	})
}

// MemLen returns the number of entries in the memory tier.
func (c *Cache) MemLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// PublishTo registers the cache's counters as live gauges (namespace
// runner_cache_*).
func (c *Cache) PublishTo(reg *telemetry.Registry) {
	gauges := []struct {
		name string
		v    *atomic.Int64
	}{
		{"runner_cache_mem_hits", &c.stats.MemHits},
		{"runner_cache_disk_hits", &c.stats.DiskHits},
		{"runner_cache_misses", &c.stats.Misses},
		{"runner_cache_stores", &c.stats.Stores},
		{"runner_cache_store_errors", &c.stats.StoreErrors},
		{"runner_cache_corrupt_evicted", &c.stats.CorruptEvicted},
		{"runner_cache_stale_evicted", &c.stats.StaleEvicted},
		{"runner_cache_remote_hits", &c.stats.RemoteHits},
		{"runner_cache_remote_misses", &c.stats.RemoteMisses},
		{"runner_cache_remote_stores", &c.stats.RemoteStores},
		{"runner_cache_remote_store_errors", &c.stats.RemoteStoreErrors},
		{"runner_cache_remote_errors", &c.stats.RemoteErrors},
		{"runner_cache_remote_corrupt", &c.stats.RemoteCorrupt},
		{"runner_cache_remote_retries", &c.stats.RemoteRetries},
	}
	for _, g := range gauges {
		v := g.v
		reg.GaugeInt(g.name, v.Load)
	}
}
