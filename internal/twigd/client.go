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

	"twig/internal/core"
	"twig/internal/runner"
	"twig/internal/workload"
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
func (c *Client) do(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("twigd: encoding %s: %w", path, err)
	}
	var last error
	for attempt := 0; ; attempt++ {
		last = c.doOnce(ctx, path, body, resp)
		if last == nil || !isTransport(last) || attempt >= c.Retries {
			return last
		}
		if c.Retry.Sleep(ctx, attempt+1) != nil {
			return last
		}
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

func (c *Client) doOnce(ctx context.Context, path string, body []byte, resp any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("twigd: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	httpResp, err := c.httpClient().Do(req)
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

// get performs one GET RPC without retries: a coordinator that does
// not answer Ping is not attached.
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
	err := c.do(context.Background(), "/v1/register", RegisterRequest{Worker: worker, Slots: slots}, &resp)
	return resp, err
}

// Claim asks for one job, which the coordinator may hold open for a
// while until one arrives; a nil job means nothing became claimable.
func (c *Client) Claim(ctx context.Context, worker string) (ClaimResponse, error) {
	var resp ClaimResponse
	err := c.do(ctx, "/v1/claim", ClaimRequest{Worker: worker}, &resp)
	return resp, err
}

// Heartbeat extends a lease; ok false means the lease is lost.
func (c *Client) Heartbeat(worker, job string, instructions int64) (bool, error) {
	var resp HeartbeatResponse
	err := c.do(context.Background(), "/v1/heartbeat", HeartbeatRequest{Worker: worker, Job: job, Instructions: instructions}, &resp)
	return resp.OK, err
}

// Complete settles a lease.
func (c *Client) Complete(req CompleteRequest) (bool, error) {
	var resp CompleteResponse
	err := c.do(context.Background(), "/v1/complete", req, &resp)
	return resp.OK, err
}

// Submit enqueues jobs, returning their queue IDs.
func (c *Client) Submit(ctx context.Context, jobs []JobSpec) ([]string, error) {
	var resp SubmitResponse
	if err := c.do(ctx, "/v1/submit", SubmitRequest{Jobs: jobs}, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
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

// Attach attaches the coordinator at base to a client: its blob store
// as cache's remote tier, and its Client as the returned runner.Fleet.
// A coordinator that does not answer attaches nothing.
func Attach(base string, cache *runner.Cache) (runner.Fleet, error) {
	c := NewClient(base)
	if err := c.Ping(); err != nil {
		return nil, err
	}
	cache.SetRemote(c.Blobs(), c.Retry, c.Retries)
	return c, nil
}

// Offer implements runner.Fleet: it submits one Runner.Schemes call as
// one job and blocks on /v1/wait until the job settles. A job the
// coordinator no longer holds (a restart lost its in-memory queue) is
// resubmitted, up to Retries times. An unreachable coordinator, a
// refused spec or a stalled fleet ends the offer with an error.
func (c *Client) Offer(ctx context.Context, app workload.App, input int, names []string, opts core.Options, tr runner.Training, home core.Options) error {
	spec := NewJobSpec(app, input, names, opts, tr, home)
	for submit := 0; submit <= c.Retries; submit++ {
		ids, err := c.Submit(ctx, []JobSpec{spec})
		if err != nil {
			return err
		}
		var resp WaitResponse
		for !resp.Settled && !resp.Stalled && len(resp.Unknown) == 0 {
			resp = WaitResponse{}
			if err := c.do(ctx, "/v1/wait", WaitRequest{IDs: ids}, &resp); err != nil {
				return err
			}
		}
		switch {
		case resp.Stalled:
			return fmt.Errorf("twigd: job %s: no alive worker", ids[0])
		case resp.Settled:
			return nil
		}
	}
	return fmt.Errorf("twigd: the coordinator lost the job %d times", c.Retries+1)
}
