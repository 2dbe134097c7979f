package twigd

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
)

// BlobStore is the coordinator's shared content-addressed store: the
// backing of the fleet-wide remote cache tier. Keys are job content
// hashes; values are the runner cache's versioned envelope bytes. The
// store is dumb on purpose — validation lives in the cache client
// (runner.RemoteCache semantics), so a corrupted blob is rejected by
// every reader rather than trusted by any.
type BlobStore interface {
	// Get returns the bytes under hash, or ErrNoBlob.
	Get(hash string) ([]byte, error)
	// Put stores bytes under hash. Puts are idempotent; last write
	// wins, which is safe because envelopes are pure functions of
	// their hash.
	Put(hash string, data []byte) error
	// Stats returns the store's counters.
	Stats() BlobStats
}

// ErrNoBlob reports an absent blob — the coordinator maps it to 404,
// which the client maps to runner.ErrRemoteMiss.
var ErrNoBlob = errors.New("twigd: no such blob")

// hashPattern is the only key shape the stores accept: a full SHA-256
// in lowercase hex. Everything else is rejected before touching the
// filesystem, so the HTTP surface cannot be steered into path games.
var hashPattern = regexp.MustCompile(`^[0-9a-f]{64}$`)

// ValidHash reports whether s is a well-formed blob key.
func ValidHash(s string) bool { return hashPattern.MatchString(s) }

// blobCounters implements the shared Stats bookkeeping.
type blobCounters struct {
	blobs, bytes, gets, puts, misses atomic.Int64
}

func (c *blobCounters) stats() BlobStats {
	return BlobStats{
		Blobs:  c.blobs.Load(),
		Bytes:  c.bytes.Load(),
		Gets:   c.gets.Load(),
		Puts:   c.puts.Load(),
		Misses: c.misses.Load(),
	}
}

// MemBlobs is an in-memory BlobStore for tests and short-lived
// coordinators.
type MemBlobs struct {
	mu sync.RWMutex
	m  map[string][]byte
	c  blobCounters
}

// NewMemBlobs returns an empty in-memory store.
func NewMemBlobs() *MemBlobs { return &MemBlobs{m: make(map[string][]byte)} }

// Get implements BlobStore.
func (b *MemBlobs) Get(hash string) ([]byte, error) {
	b.c.gets.Add(1)
	b.mu.RLock()
	data, ok := b.m[hash]
	b.mu.RUnlock()
	if !ok {
		b.c.misses.Add(1)
		return nil, ErrNoBlob
	}
	return data, nil
}

// Put implements BlobStore.
func (b *MemBlobs) Put(hash string, data []byte) error {
	if !ValidHash(hash) {
		return fmt.Errorf("twigd: invalid blob hash %q", hash)
	}
	b.c.puts.Add(1)
	cp := append([]byte(nil), data...)
	b.mu.Lock()
	if old, ok := b.m[hash]; ok {
		b.c.bytes.Add(int64(len(cp) - len(old)))
	} else {
		b.c.blobs.Add(1)
		b.c.bytes.Add(int64(len(cp)))
	}
	b.m[hash] = cp
	b.mu.Unlock()
	return nil
}

// Stats implements BlobStore.
func (b *MemBlobs) Stats() BlobStats { return b.c.stats() }

// DirBlobs is a directory-backed BlobStore using exactly the runner
// disk cache's layout — dir/hh/<hash>.json, written atomically — so a
// coordinator can serve an existing cache directory to the fleet, and
// a directory the coordinator populated is directly usable as a local
// cache dir afterwards.
type DirBlobs struct {
	dir string
	c   blobCounters
}

// OpenDirBlobs roots a store at dir (created if missing) and primes
// the blob/byte counters from what is already there.
func OpenDirBlobs(dir string) (*DirBlobs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("twigd: creating blob dir: %w", err)
	}
	b := &DirBlobs{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, shard := range entries {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if info, err := f.Info(); err == nil && !f.IsDir() {
				b.c.blobs.Add(1)
				b.c.bytes.Add(info.Size())
			}
		}
	}
	return b, nil
}

// Dir returns the store's root directory.
func (b *DirBlobs) Dir() string { return b.dir }

func (b *DirBlobs) path(hash string) string {
	return filepath.Join(b.dir, hash[:2], hash+".json")
}

// Get implements BlobStore.
func (b *DirBlobs) Get(hash string) ([]byte, error) {
	b.c.gets.Add(1)
	if !ValidHash(hash) {
		b.c.misses.Add(1)
		return nil, ErrNoBlob
	}
	data, err := os.ReadFile(b.path(hash))
	if err != nil {
		b.c.misses.Add(1)
		return nil, ErrNoBlob
	}
	return data, nil
}

// Put implements BlobStore.
func (b *DirBlobs) Put(hash string, data []byte) error {
	if !ValidHash(hash) {
		return fmt.Errorf("twigd: invalid blob hash %q", hash)
	}
	b.c.puts.Add(1)
	final := b.path(hash)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return err
	}
	existed := false
	var oldSize int64
	if info, err := os.Stat(final); err == nil {
		existed, oldSize = true, info.Size()
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
	if existed {
		b.c.bytes.Add(int64(len(data)) - oldSize)
	} else {
		b.c.blobs.Add(1)
		b.c.bytes.Add(int64(len(data)))
	}
	return nil
}

// Stats implements BlobStore.
func (b *DirBlobs) Stats() BlobStats { return b.c.stats() }
