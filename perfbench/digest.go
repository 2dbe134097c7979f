package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"twig/internal/pipeline"
	"twig/internal/workload"
)

// digest hashes the simulated statistics of one run: cycles, per-kind
// BTB accesses and misses, L1i accesses and misses, and prefetch
// issued/used/late counts. Host timings never enter it, so a change
// that only speeds the simulator up leaves every digest unchanged.
func digest(r *pipeline.Result) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(math.Float64bits(r.Cycles))
	for k := range r.BTB.Accesses {
		put(uint64(r.BTB.Accesses[k]))
		put(uint64(r.BTB.Misses[k]))
	}
	put(uint64(r.ICacheAccesses))
	put(uint64(r.ICacheMisses))
	put(uint64(r.Prefetch.Issued))
	put(uint64(r.Prefetch.Used))
	put(uint64(r.Prefetch.Late))
	return fmt.Sprintf("%016x", h.Sum64())
}

// schemeKey names one schemes-workload cell (training input 0).
func schemeKey(app workload.App, scheme string, input int) string {
	return fmt.Sprintf("schemes/%s/%s/%d", app, scheme, input)
}

// sweepKey names one sweep grid point.
func sweepKey(app workload.App, maskBits, train int) string {
	return fmt.Sprintf("sweep/%s/mask%d/%d", app, maskBits, train)
}

// digestsJSON holds the committed digest of every cell any seed can
// select (regenerate with -write-digests).
//
//go:embed digests.json
var digestsJSON []byte

// digestBook maps a cell key to its committed digest.
type digestBook map[string]string

func loadDigests() (digestBook, error) {
	var b digestBook
	if err := json.Unmarshal(digestsJSON, &b); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return b, nil
}

// check compares a run's digest with the committed one.
func (b digestBook) check(key string, r *pipeline.Result) error {
	want, ok := b[key]
	if !ok {
		return fmt.Errorf("%s: no committed digest", key)
	}
	if got := digest(r); got != want {
		return fmt.Errorf("%s: digest %s, committed %s", key, got, want)
	}
	return nil
}
