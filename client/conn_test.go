package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestLargeReportsReuseOneConnection: JSON calls read each response to
// the end, so a client that fetches a large chunked report again and
// again keeps one keep-alive connection instead of dialing per call.
func TestLargeReportsReuseOneConnection(t *testing.T) {
	rep := &Report{Owner: 1}
	for u := int64(1); u <= 2000; u++ {
		rep.Strangers = append(rep.Strangers, StrangerRisk{User: u, Label: 2, Pool: "nsg01/psg001", NetworkSimilarity: 0.25})
	}
	body, err := json.Marshal(EstimateStatus{ID: "e000001", Status: StatusDone, Owner: 1, Report: rep})
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 100<<10 {
		t.Fatalf("report body is %d bytes, want at least 100 KB", len(body))
	}
	hs := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(json.RawMessage(body)) // chunked, with a trailing newline
	}))
	var conns atomic.Int64
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()

	c := New(hs.URL)
	c.HTTPClient = hs.Client()
	for i := 0; i < 20; i++ {
		st, err := c.Get(context.Background(), "e000001")
		if err != nil {
			t.Fatal(err)
		}
		if st.Report == nil || len(st.Report.Strangers) != len(rep.Strangers) {
			t.Fatalf("call %d decoded no report of %d strangers", i, len(rep.Strangers))
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 calls opened %d connections, want 1", n)
	}
}
