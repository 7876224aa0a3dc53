package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyHandler answers the first fail requests with the given status
// (and optional Retry-After), then succeeds with an empty status body.
func flakyHandler(fail int, status int, retryAfter string, hits *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		if n <= int64(fail) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write([]byte(`{"error":{"code":"over_budget","message":"busy"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"e000001","status":"done","owner":1,"queries":0}`))
	})
}

func TestRetryOn429ThenSuccess(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(flakyHandler(2, http.StatusTooManyRequests, "", &hits))
	defer hs.Close()
	c := New(hs.URL)
	st, err := c.Get(context.Background(), "e000001")
	if err != nil {
		t.Fatalf("expected retries to absorb the 429s, got %v", err)
	}
	if st.ID != "e000001" {
		t.Errorf("status = %+v", st)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (2 failures + success)", got)
	}
}

func TestRetryOn503HonorsRetryAfter(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(flakyHandler(1, http.StatusServiceUnavailable, "1", &hits))
	defer hs.Close()
	c := New(hs.URL)
	start := time.Now()
	if _, err := c.Get(context.Background(), "e000001"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retried after %v, want >= the server's Retry-After of 1s", elapsed)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}
}

// TestRetryAfterBeyondCapFailsFast: a Retry-After the client is not
// willing to wait out returns the server's error immediately instead
// of stalling the caller.
func TestRetryAfterBeyondCapFailsFast(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(flakyHandler(99, http.StatusTooManyRequests, "60", &hits))
	defer hs.Close()
	c := New(hs.URL)
	start := time.Now()
	_, err := c.Get(context.Background(), "e000001")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.RetryAfter != 60 {
		t.Fatalf("err = %v, want APIError carrying Retry-After 60", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("took %v, want immediate fail-fast", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want exactly 1", got)
	}
}

func TestNoRetryOptOut(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(flakyHandler(99, http.StatusServiceUnavailable, "", &hits))
	defer hs.Close()
	c := New(hs.URL)
	c.Options.Retry.Disabled = true
	_, err := c.Get(context.Background(), "e000001")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the raw 503", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want exactly 1 with Retry.Disabled", got)
	}
}

func TestClientErrorsAreNotRetried(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":{"code":"not_found","message":"no such estimate"}}`))
	}))
	defer hs.Close()
	c := New(hs.URL)
	if _, err := c.Get(context.Background(), "ghost"); err == nil {
		t.Fatal("expected an error")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d requests, want 1 — 404 is not retryable", got)
	}
}

// TestTransportErrorRetriesIdempotent: a dropped connection retries a
// GET (idempotent) but never a POST, which may already have been
// applied.
func TestTransportErrorRetriesIdempotent(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Sever the connection mid-response: the client sees a
			// transport error, not an HTTP status.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder does not support hijack")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close()
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"e000001","status":"done","owner":1,"queries":0}`))
	}))
	defer hs.Close()

	c := New(hs.URL)
	if _, err := c.Get(context.Background(), "e000001"); err != nil {
		t.Fatalf("GET after dropped connection: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2 (drop + retry)", got)
	}

	hits.Store(0)
	_, err := c.Submit(context.Background(), &EstimateRequest{Dataset: "study", Owner: 1})
	if err == nil {
		t.Fatal("expected the dropped POST to surface its transport error")
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d POSTs, want exactly 1 — submissions must not replay", got)
	}
}

// TestClusterIgnoresUnknownAffinityNode: the affinity hint carries the
// server's own node id, which need not match the labels this router
// was configured with (sightctl accepts bare URLs with positional
// ids). A hint naming a node the router does not know must be skipped,
// not dereferenced.
func TestClusterIgnoresUnknownAffinityNode(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"e000001","status":"done","owner":1,"queries":0,"node":"n1"}`))
	}))
	defer hs.Close()
	cl, err := NewCluster([]ClusterNode{{ID: "node1", URL: hs.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The first Get records the server's node id ("n1") as the job's
	// affinity; the router only knows the node as "node1".
	if _, err := cl.Get(ctx, "e000001"); err != nil {
		t.Fatal(err)
	}
	// The second Get orders the unknown affinity node first.
	st, err := cl.Get(ctx, "e000001")
	if err != nil {
		t.Fatalf("Get with unknown affinity hint: %v", err)
	}
	if st.Status != StatusDone {
		t.Errorf("status = %q, want %q", st.Status, StatusDone)
	}
	if got := hits.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2", got)
	}
}

func TestRetryRespectsContext(t *testing.T) {
	var hits atomic.Int64
	hs := httptest.NewServer(flakyHandler(99, http.StatusServiceUnavailable, "2", &hits))
	defer hs.Close()
	c := New(hs.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Get(ctx, "e000001")
	if err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("retry loop outlived its context: %v", elapsed)
	}
}
