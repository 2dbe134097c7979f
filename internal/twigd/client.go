package twigd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"twig/internal/runner"
)

// Client talks to one coordinator. The zero HTTP client and zero Retry
// policy work; NewClient fills in the defaults (DefaultRemoteBackoff
// spacing, DefaultRemoteRetries re-attempts) used by the worker, the
// facade and cmd/experiments.
type Client struct {
	// Base is the coordinator's base URL, e.g. "http://127.0.0.1:9090".
	Base string
	// HTTP is the transport (nil = a client with a 30s timeout).
	HTTP *http.Client
	// Retry spaces re-attempts of failed transfers; Retries bounds
	// them (0 = no retries; the cache layer adds its own envelope for
	// blob traffic, so Blobs() transfers are never retried here).
	Retry   runner.Backoff
	Retries int
}

// NewClient returns a client with the default retry policy.
func NewClient(base string) *Client {
	return &Client{
		Base:    strings.TrimRight(base, "/"),
		HTTP:    &http.Client{Timeout: 30 * time.Second},
		Retry:   runner.DefaultRemoteBackoff(),
		Retries: runner.DefaultRemoteRetries,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do performs one JSON RPC with bounded retries on transport failure.
// HTTP-level errors (4xx/5xx) are returned without retry: they are
// answers, not outages.
func (c *Client) do(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("twigd: encoding %s: %w", path, err)
	}
	var last error
	for attempt := 0; ; attempt++ {
		last = c.doOnce(path, body, resp)
		if last == nil || !isTransport(last) || attempt >= c.Retries {
			return last
		}
		time.Sleep(c.Retry.Delay(attempt + 1))
	}
}

// transportError marks failures worth retrying (connection refused,
// resets) as opposed to definitive HTTP answers.
type transportError struct{ err error }

// Error implements error.
func (e transportError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e transportError) Unwrap() error { return e.err }

func isTransport(err error) bool {
	_, ok := err.(transportError)
	return ok
}

func (c *Client) doOnce(path string, body []byte, resp any) error {
	httpResp, err := c.httpClient().Post(c.Base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return transportError{fmt.Errorf("twigd: %s: %w", path, err)}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("twigd: %s: %s: %s", path, httpResp.Status, strings.TrimSpace(string(msg)))
	}
	if resp == nil {
		return nil
	}
	if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
		return transportError{fmt.Errorf("twigd: decoding %s: %w", path, err)}
	}
	return nil
}

// get performs one GET RPC (no retries — callers poll anyway).
func (c *Client) get(path string, resp any) error {
	httpResp, err := c.httpClient().Get(c.Base + path)
	if err != nil {
		return transportError{fmt.Errorf("twigd: %s: %w", path, err)}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 4096))
		return fmt.Errorf("twigd: %s: %s: %s", path, httpResp.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(httpResp.Body).Decode(resp)
}

// Ping checks the coordinator is reachable.
func (c *Client) Ping() error {
	var st StatusResponse
	return c.get("/v1/status", &st)
}

// Register announces a worker.
func (c *Client) Register(worker string, slots int) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.do("/v1/register", RegisterRequest{Worker: worker, Slots: slots}, &resp)
	return resp, err
}

// Claim asks for one job; a nil job means nothing is claimable.
func (c *Client) Claim(worker string) (ClaimResponse, error) {
	var resp ClaimResponse
	err := c.do("/v1/claim", ClaimRequest{Worker: worker}, &resp)
	return resp, err
}

// Heartbeat extends a lease; ok false means the lease is lost.
func (c *Client) Heartbeat(worker, job string, instructions int64) (bool, error) {
	var resp HeartbeatResponse
	err := c.do("/v1/heartbeat", HeartbeatRequest{Worker: worker, Job: job, Instructions: instructions}, &resp)
	return resp.OK, err
}

// Complete settles a lease.
func (c *Client) Complete(req CompleteRequest) (bool, error) {
	var resp CompleteResponse
	err := c.do("/v1/complete", req, &resp)
	return resp.OK, err
}

// Submit enqueues jobs, returning their queue IDs.
func (c *Client) Submit(jobs []JobSpec) ([]string, error) {
	var resp SubmitResponse
	if err := c.do("/v1/submit", SubmitRequest{Jobs: jobs}, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Status returns the queue counts and alive-worker count.
func (c *Client) Status() (StatusResponse, error) {
	var resp StatusResponse
	err := c.get("/v1/status", &resp)
	return resp, err
}

// Blobs adapts the coordinator's /blob endpoint to the runner's
// RemoteCache interface: attach it with Cache.SetRemote and the
// coordinator's store becomes the cache's third tier. Transfers carry
// no internal retries (per the RemoteCache contract — the cache wraps
// them) and a 404 maps to runner.ErrRemoteMiss.
func (c *Client) Blobs() runner.RemoteCache { return blobClient{c} }

type blobClient struct{ c *Client }

// Fetch implements runner.RemoteCache over GET /blob/{hash}.
func (b blobClient) Fetch(hash string) ([]byte, error) {
	resp, err := b.c.httpClient().Get(b.c.Base + "/blob/" + hash)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, runner.ErrRemoteMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("twigd: blob fetch: %s", resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes))
}

// Store implements runner.RemoteCache over PUT /blob/{hash}.
func (b blobClient) Store(hash string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, b.c.Base+"/blob/"+hash, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("twigd: blob store: %s", resp.Status)
	}
	return nil
}

// drainPoll is how often Drain re-reads the coordinator's status.
const drainPoll = 250 * time.Millisecond

// Drain submits specs and blocks until the fleet has settled every
// queued job (done or failed), then returns nil — the caller's local
// execution path picks the results up as remote cache hits and
// re-executes anything that failed. It returns an error (and the
// caller degrades to pure local execution) when the coordinator is
// unreachable, the submission is rejected, the context is cancelled,
// or no alive worker holds a lease while work is still pending — a
// fleet that cannot make progress must not stall the client.
// progress, when non-nil, receives human-readable status lines.
func (c *Client) Drain(ctx context.Context, specs []JobSpec, progress func(string)) error {
	say := func(msg string) {
		if progress != nil {
			progress(msg)
		}
	}
	if len(specs) == 0 {
		return nil
	}
	if _, err := c.Submit(specs); err != nil {
		return err
	}
	say(fmt.Sprintf("%d jobs submitted", len(specs)))
	idle, lastLine := 0, ""
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(drainPoll):
		}
		st, err := c.Status()
		if err != nil {
			if !isTransport(err) {
				return err
			}
			idle++
			if idle > c.Retries+1 {
				return fmt.Errorf("twigd: coordinator unreachable: %w", err)
			}
			continue
		}
		idle = 0
		q := st.Queue
		if line := fmt.Sprintf("%d pending, %d leased, %d done, %d failed, %d workers",
			q.Pending, q.Leased, q.Done, q.Failed, st.AliveWorkers); line != lastLine {
			say(line)
			lastLine = line
		}
		if q.Pending == 0 && q.Leased == 0 {
			if q.Failed > 0 {
				say(fmt.Sprintf("%d jobs failed on the fleet; they will re-execute locally", q.Failed))
			}
			return nil
		}
		if st.AliveWorkers == 0 && q.Leased == 0 {
			return fmt.Errorf("twigd: no alive workers (%d jobs pending)", q.Pending)
		}
	}
}
