package mcmpart

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mcmpart/internal/parallel"
)

// ClientOptions configure a Client's resilience behavior. The zero value
// means no retries, every failure surfaced immediately — retrying is opt-in
// because it multiplies load exactly when the daemon says it is overloaded.
type ClientOptions struct {
	// MaxRetries is how many times a failed request is retried beyond the
	// first attempt (0 disables retrying). Only idempotent-safe failures
	// are retried: transport errors, corrupt response bodies, 429 (queue
	// full), and 503 (draining or restarting) — every plan-API request is
	// idempotent because plans are a pure function of the request (DESIGN.md
	// §8), so re-sending can change cost, never the answer. Other HTTP
	// errors (400, 404, 409) and context cancellation are never retried.
	MaxRetries int
	// BaseBackoff is the first retry's backoff; each further retry doubles
	// it, capped at MaxBackoff (0 = 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff (0 = 2s). A server-provided
	// Retry-After overrides the computed backoff when longer.
	MaxBackoff time.Duration
	// Seed drives the deterministic backoff jitter (0 = 1). Two clients
	// with different seeds desynchronize their retry storms; the same seed
	// reproduces the exact retry schedule — the property the chaos tests
	// pin.
	Seed int64
	// PollErrorBudget is how many consecutive failed polls WaitJob
	// tolerates before giving up (0 = 3; negative = fail on the first,
	// the pre-retry behavior). The budget resets on every successful
	// poll, so a long wait survives any number of isolated blips but not
	// a dead daemon.
	PollErrorBudget int
	// OnRetry, when set, observes every retry the client is about to wait
	// out: the zero-based attempt number, the jittered delay it will
	// sleep, and the error that caused the retry. Chaos tests use it to
	// count retries deterministically; it runs on the requesting
	// goroutine and must not block.
	OnRetry func(attempt int, delay time.Duration, cause error)
}

// normalized resolves defaults.
func (o ClientOptions) normalized() ClientOptions {
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	o.Seed = seedOrDefault(o.Seed)
	switch {
	case o.PollErrorBudget < 0:
		o.PollErrorBudget = 1
	case o.PollErrorBudget == 0:
		o.PollErrorBudget = 3
	}
	return o
}

// Client is a thin Go client for the mcmpartd HTTP API (see NewHTTPHandler
// for the routes and wire types). A Client is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts ClientOptions
	// now is the clock Retry-After HTTP-dates are resolved against;
	// injectable so tests can pin it.
	now func() time.Time
	// retrySeq numbers retry sleeps across the client's lifetime, so the
	// jitter stream never repeats within one client but is reproducible
	// across runs with the same seed and call sequence.
	retrySeq atomic.Int64
}

// NewClient returns a client for the daemon at baseURL (e.g.
// "http://localhost:7433"). httpClient may be nil for http.DefaultClient.
// The zero ClientOptions keep retrying off.
func NewClient(baseURL string, httpClient *http.Client, opts ClientOptions) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: httpClient, opts: opts.normalized(), now: time.Now}
}

// BaseURL returns the daemon base URL the client talks to.
func (c *Client) BaseURL() string { return c.base }

// APIError is the client-side form of a daemon error response. Use
// errors.As to read the status code, or errors.Is against the service
// sentinels — the daemon's status-code mapping is inverted here, so
// errors.Is(err, ErrBusy) works the same whether the Service was called
// in-process or through a daemon.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the parsed Retry-After header (0 when absent). The
	// daemon sends it on 429 and 503; the client's retry loop honors it
	// when it exceeds the computed backoff.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mcmpartd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// row is statusTable read backwards: the row of the daemon's status code,
// nil for a status the table does not know (a proxy's 502, a 404).
func (e *APIError) row() *statusRow {
	for i := range statusTable {
		if statusTable[i].Status == e.StatusCode {
			return &statusTable[i]
		}
	}
	return nil
}

// Is maps the daemon's HTTP status code back to the service sentinel
// statusTable pairs it with.
func (e *APIError) Is(target error) bool {
	row := e.row()
	return row != nil && row.Err == target
}

// retryable classifies an error as idempotent-safe to retry: transport
// and corrupt-body failures (the request may not even have arrived — and
// if it did, re-planning the same key yields the identical plan), plus the
// daemon statuses statusTable marks transient. Every other status is final.
// Context cancellation belongs to the caller and is never retried.
func retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		row := apiErr.row()
		return row != nil && row.Transient
	}
	// Anything that is not a daemon-shaped response: connection refused,
	// reset mid-body, truncated or corrupt JSON.
	return true
}

// do issues a request, retrying per the client's options, and decodes the
// JSON response into out.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("mcmpart: encoding request: %w", err)
		}
		payload = data
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, path, payload, out)
		if err == nil || attempt >= c.opts.MaxRetries || !retryable(err) {
			return err
		}
		if serr := c.sleepBackoff(ctx, attempt, err); serr != nil {
			return serr
		}
	}
}

// backoffFor computes the pre-jitter exponential backoff for one retry:
// BaseBackoff doubled attempt times, saturating at MaxBackoff. The
// saturation test is shift-free on the growing side — BaseBackoff <<
// attempt wraps int64 at high attempt counts, and the wrap can land on a
// small *positive* value that slips a post-shift "d <= 0 || d > max"
// clamp — so instead compare against MaxBackoff >> attempt, which only
// shrinks and can never overflow.
func (c *Client) backoffFor(attempt int) time.Duration {
	base, max := c.opts.BaseBackoff, c.opts.MaxBackoff
	if attempt >= 63 || base > max>>attempt {
		return max
	}
	return base << attempt
}

// sleepBackoff waits out one retry: exponential backoff with deterministic
// seeded jitter, overridden by a longer server Retry-After, cut short by
// ctx.
func (c *Client) sleepBackoff(ctx context.Context, attempt int, cause error) error {
	d := c.backoffFor(attempt)
	// Jitter into [d/2, d): enough spread to break retry synchronization
	// across clients, fully reproducible for a given seed and sequence.
	z := uint64(parallel.Seed(c.opts.Seed, int(c.retrySeq.Add(1))))
	frac := float64(z>>11) / float64(uint64(1)<<53)
	d = d/2 + time.Duration(float64(d/2)*frac)
	var apiErr *APIError
	if errors.As(cause, &apiErr) && apiErr.RetryAfter > d {
		d = apiErr.RetryAfter
	}
	if c.opts.OnRetry != nil {
		c.opts.OnRetry(attempt, d, cause)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doOnce issues exactly one request.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{StatusCode: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), c.now)}
		var er ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			apiErr.Message = er.Error
		} else {
			// Malformed (non-JSON) error body: keep the raw text so proxies'
			// plain-text errors stay diagnosable.
			apiErr.Message = strings.TrimSpace(string(data))
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("mcmpart: decoding response: %w", err)
	}
	return nil
}

// parseRetryAfter reads both RFC 9110 forms of Retry-After: delay-seconds
// (what the daemon sends) and HTTP-date (what a proxy in front of it may
// rewrite the header to), the latter resolved against now. Garbage — and
// dates already in the past — parse as 0.
func parseRetryAfter(v string, now func() time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now()); d > 0 {
			return d
		}
	}
	return 0
}

// Plan runs a synchronous, cache-aware plan on the daemon.
func (c *Client) Plan(ctx context.Context, g *Graph, opts PlanOptions) (*PlanResponse, error) {
	var resp PlanResponse
	err := c.do(ctx, http.MethodPost, "/v1/plan", PlanRequestWire{
		Graph:   g,
		Options: PlanOptionsWire(opts),
	}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// SubmitJob submits an asynchronous plan and returns its initial status.
func (c *Client) SubmitJob(ctx context.Context, g *Graph, opts PlanOptions) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", PlanRequestWire{
		Graph:   g,
		Options: PlanOptionsWire(opts),
	}, &st)
	return st, err
}

// jobPath is the route of one job: the ID escaped into one path segment, so
// that no ID addresses another route or another job. An ID no segment can
// carry ("", ".", "..") is an ErrInvalidRequest, and no request is sent.
func jobPath(id string) (string, error) {
	if id == "" || id == "." || id == ".." {
		return "", fmt.Errorf("%w: job ID %q cannot be a path segment", ErrInvalidRequest, id)
	}
	return "/v1/jobs/" + url.PathEscape(id), nil
}

// JobStatus fetches the current status (and result, once terminal) of a job.
func (c *Client) JobStatus(ctx context.Context, id string) (*JobResponse, error) {
	path, err := jobPath(id)
	if err != nil {
		return nil, err
	}
	var resp JobResponse
	if err := c.do(ctx, http.MethodGet, path, nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CancelJob cancels a job; the daemon keeps its best-so-far result.
func (c *Client) CancelJob(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	path, err := jobPath(id)
	if err != nil {
		return st, err
	}
	err = c.do(ctx, http.MethodDelete, path, nil, &st)
	return st, err
}

// WaitJob polls a job until it is terminal (or ctx is done), returning the
// final response. poll <= 0 defaults to 250ms. Isolated transient poll
// failures (a dropped connection, a proxy blip) do not abort the wait:
// WaitJob tolerates up to ClientOptions.PollErrorBudget consecutive
// transient failures, resetting the budget on every successful poll.
// Non-transient errors — an unknown job, a cancelled ctx — fail
// immediately.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobResponse, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	consecutive := 0
	for {
		resp, err := c.JobStatus(ctx, id)
		switch {
		case err == nil:
			consecutive = 0
			if resp.State.Terminal() {
				return resp, nil
			}
		case !retryable(err):
			return nil, err
		default:
			consecutive++
			if consecutive >= c.opts.PollErrorBudget {
				return nil, fmt.Errorf("mcmpart: %d consecutive failed polls for job %s: %w", consecutive, id, err)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
		}
	}
}

// Policies lists the daemon's installed and registry policies.
func (c *Client) Policies(ctx context.Context) (*PoliciesResponse, error) {
	var resp PoliciesResponse
	if err := c.do(ctx, http.MethodGet, "/v1/policies", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches the daemon's operational snapshot.
func (c *Client) Stats(ctx context.Context) (*ServiceStats, error) {
	var st ServiceStats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Health checks /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
