package mcmpart

// In-package tests for the client's retry timing internals: the
// saturating exponential backoff (an int64 shift wrap used to collapse it
// at high attempt counts) and both RFC 9110 forms of Retry-After.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestBackoffShiftSaturates pins the overflow regression: with a base
// near the int64 ceiling, BaseBackoff << attempt wraps to a small
// positive duration at attempt 14 ((2^50+1)<<14 ≡ 2^14 mod 2^64), which
// slipped the old "d <= 0 || d > MaxBackoff" clamp and collapsed the
// backoff. The fixed computation must be monotone non-decreasing and
// pinned at MaxBackoff once it caps.
func TestBackoffShiftSaturates(t *testing.T) {
	c := NewClient("http://unused", nil, ClientOptions{
		MaxRetries:  40,
		BaseBackoff: time.Duration(1<<50 + 1),
		MaxBackoff:  2 * time.Second,
	})
	prev := time.Duration(0)
	for attempt := 0; attempt < 40; attempt++ {
		d := c.backoffFor(attempt)
		if d <= 0 || d > c.opts.MaxBackoff {
			t.Fatalf("attempt %d: backoff %v escapes (0, %v]", attempt, d, c.opts.MaxBackoff)
		}
		if d < prev {
			t.Fatalf("attempt %d: backoff %v dropped below attempt %d's %v", attempt, d, attempt-1, prev)
		}
		prev = d
	}
	if prev != c.opts.MaxBackoff {
		t.Fatalf("backoff never reached the %v cap (last %v)", c.opts.MaxBackoff, prev)
	}
}

// TestBackoffDoublesUntilCap checks the ordinary schedule is untouched by
// the saturation rewrite: base, 2*base, 4*base, ... then MaxBackoff.
func TestBackoffDoublesUntilCap(t *testing.T) {
	c := NewClient("http://unused", nil, ClientOptions{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  2 * time.Second,
	})
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second,
		2 * time.Second, 2 * time.Second,
	}
	for attempt, w := range want {
		if d := c.backoffFor(attempt); d != w {
			t.Fatalf("attempt %d: backoff %v, want %v", attempt, d, w)
		}
	}
}

func TestParseRetryAfter(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	now := func() time.Time { return base }
	cases := []struct {
		name string
		v    string
		want time.Duration
	}{
		{"empty", "", 0},
		{"seconds", "7", 7 * time.Second},
		{"seconds with spaces", " 3 ", 3 * time.Second},
		{"negative seconds", "-1", 0},
		{"garbage", "soon", 0},
		{"http date ahead", base.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{"http date in the past", base.Add(-time.Minute).Format(http.TimeFormat), 0},
		{"http date rfc850", base.Add(30 * time.Second).Format(time.RFC850), 30 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := parseRetryAfter(tc.v, now); got != tc.want {
				t.Fatalf("parseRetryAfter(%q) = %v, want %v", tc.v, got, tc.want)
			}
		})
	}
}

// TestRetryAfterHTTPDateFromServer runs the header through the real
// response path: a proxy-style 503 with an HTTP-date Retry-After must
// surface as APIError.RetryAfter instead of silently parsing as 0.
func TestRetryAfterHTTPDateFromServer(t *testing.T) {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", base.Add(45*time.Second).Format(http.TimeFormat))
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewClient(srv.URL, nil, ClientOptions{})
	c.now = func() time.Time { return base }
	err := c.Health(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Health returned %v, want *APIError", err)
	}
	if apiErr.RetryAfter != 45*time.Second {
		t.Fatalf("RetryAfter = %v, want 45s", apiErr.RetryAfter)
	}
}

// TestOnRetryObserver counts retries through the hook: two 503s then
// success must surface exactly two observations with the causes attached.
func TestOnRetryObserver(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok": true}`))
	}))
	defer srv.Close()
	type retry struct {
		attempt int
		delay   time.Duration
	}
	var seen []retry
	c := NewClient(srv.URL, nil, ClientOptions{
		MaxRetries:  5,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  time.Millisecond,
		OnRetry: func(attempt int, delay time.Duration, cause error) {
			if cause == nil {
				t.Error("OnRetry called with nil cause")
			}
			seen = append(seen, retry{attempt, delay})
		},
	})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after retries: %v", err)
	}
	if len(seen) != 2 {
		t.Fatalf("observed %d retries, want 2", len(seen))
	}
	for i, r := range seen {
		if r.attempt != i {
			t.Fatalf("retry %d reported attempt %d", i, r.attempt)
		}
		if r.delay <= 0 {
			t.Fatalf("retry %d reported non-positive delay %v", i, r.delay)
		}
	}
}
