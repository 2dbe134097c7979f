package runner

import (
	"bytes"
	"encoding/json"
	"fmt"

	"twig/internal/pipeline"
	"twig/internal/profile"
)

// FormatVersion is the on-disk envelope format; entries written under
// any other version are ignored (and evicted) on read.
const FormatVersion = 1

// SimVersion names the simulator behavior generation. It participates
// in every job hash and every cache envelope: bump it whenever a
// change alters simulation results, and every stale cache entry
// becomes unreachable at once.
const SimVersion = "twig-sim-1"

// Codec serializes a job payload for the persistent cache tier.
type Codec interface {
	// Name tags the payload type inside the envelope; decoding with a
	// different codec than the entry was written with is a stale miss.
	Name() string
	// Encode renders the payload to bytes.
	Encode(v any) ([]byte, error)
	// Decode reconstructs the payload. It must reject, not panic on,
	// arbitrary bytes.
	Decode(data []byte) (any, error)
}

// ResultCodec serializes *pipeline.Result as JSON. JSON round-trips
// Go float64s exactly (shortest-representation encoding), so a decoded
// result renders byte-identically to a freshly computed one.
type ResultCodec struct{}

// Name implements Codec.
func (ResultCodec) Name() string { return "result" }

// Encode implements Codec.
func (ResultCodec) Encode(v any) ([]byte, error) {
	r, ok := v.(*pipeline.Result)
	if !ok {
		return nil, fmt.Errorf("runner: result codec: got %T", v)
	}
	return json.Marshal(r)
}

// Decode implements Codec.
func (ResultCodec) Decode(data []byte) (any, error) {
	r := new(pipeline.Result)
	if err := strictUnmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// ProfileCodec serializes *profile.Profile with the profile package's
// versioned binary format (the same bytes profile.Save writes), so
// cached training profiles interoperate with the decoupled-deployment
// tooling.
type ProfileCodec struct{}

// Name implements Codec.
func (ProfileCodec) Name() string { return "profile" }

// Encode implements Codec.
func (ProfileCodec) Encode(v any) ([]byte, error) {
	p, ok := v.(*profile.Profile)
	if !ok {
		return nil, fmt.Errorf("runner: profile codec: got %T", v)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode implements Codec.
func (ProfileCodec) Decode(data []byte) (any, error) {
	return profile.Load(bytes.NewReader(data))
}

// JSONCodec serializes any JSON-representable derived payload (the 3C
// classification counts, stream fractions, working-set sizes the
// characterization experiments compute from instrumented runs).
type JSONCodec[T any] struct{}

// Name implements Codec.
func (JSONCodec[T]) Name() string { return "json" }

// Encode implements Codec.
func (JSONCodec[T]) Encode(v any) ([]byte, error) {
	t, ok := v.(T)
	if !ok {
		return nil, fmt.Errorf("runner: json codec: got %T", v)
	}
	return json.Marshal(t)
}

// Decode implements Codec.
func (JSONCodec[T]) Decode(data []byte) (any, error) {
	var t T
	if err := strictUnmarshal(data, &t); err != nil {
		return nil, err
	}
	return t, nil
}

// strictUnmarshal is json.Unmarshal with unknown fields rejected, so a
// payload written by a struct with since-renamed fields reads as
// corrupt instead of silently zero-filling.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// envelope is the on-disk cache entry frame. Payload holds the
// codec-specific bytes (base64 in the JSON rendering).
type envelope struct {
	Format  int    `json:"format"`
	Sim     string `json:"sim"`
	Codec   string `json:"codec"`
	Hash    string `json:"hash"`
	Payload []byte `json:"payload"`
}

// staleError marks a well-formed entry written under a different
// format, simulator version, or codec — ignored, not fatal.
type staleError struct{ reason string }

// Error implements error.
func (e staleError) Error() string { return "stale cache entry: " + e.reason }

// encodeEntry frames a payload for disk.
func encodeEntry(hash string, codec Codec, v any) ([]byte, error) {
	payload, err := codec.Encode(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(envelope{
		Format:  FormatVersion,
		Sim:     SimVersion,
		Codec:   codec.Name(),
		Hash:    hash,
		Payload: payload,
	})
}

// decodeEntry validates an on-disk entry and decodes its payload. A
// version or codec mismatch returns a staleError; anything else
// undecodable is corrupt.
func decodeEntry(data []byte, hash string, codec Codec) (any, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("corrupt envelope: %w", err)
	}
	if env.Format != FormatVersion {
		return nil, staleError{fmt.Sprintf("format %d, want %d", env.Format, FormatVersion)}
	}
	if env.Sim != SimVersion {
		return nil, staleError{fmt.Sprintf("simulator %q, want %q", env.Sim, SimVersion)}
	}
	if env.Codec != codec.Name() {
		return nil, staleError{fmt.Sprintf("codec %q, want %q", env.Codec, codec.Name())}
	}
	if env.Hash != hash {
		return nil, fmt.Errorf("corrupt envelope: hash %q does not match entry %q", env.Hash, hash)
	}
	v, err := codec.Decode(env.Payload)
	if err != nil {
		return nil, fmt.Errorf("corrupt payload: %w", err)
	}
	return v, nil
}
