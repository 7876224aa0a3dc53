package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sightrisk/client"
	"sightrisk/internal/core"
)

// mapStore is an in-memory Store, so a test can persist thousands of
// jobs without a file write each.
type mapStore struct {
	mu       sync.Mutex
	jobs     map[string]JobRecord
	finals   map[string]FinalRecord
	finalErr error // returned by GetFinal when set
}

func newMapStore() *mapStore {
	return &mapStore{jobs: map[string]JobRecord{}, finals: map[string]FinalRecord{}}
}

func (m *mapStore) PutJob(rec JobRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.jobs[rec.ID] = rec
	return nil
}

func (m *mapStore) GetJob(id string) (JobRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.jobs[id]
	if !ok {
		return JobRecord{}, os.ErrNotExist
	}
	return rec, nil
}

func (m *mapStore) Jobs() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var ids []string
	for id := range m.jobs {
		ids = append(ids, id)
	}
	return ids, nil
}

func (m *mapStore) PutFinal(id string, fin FinalRecord) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finals[id] = fin
	return nil
}

func (m *mapStore) GetFinal(id string) (FinalRecord, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.finalErr != nil {
		return FinalRecord{}, m.finalErr
	}
	fin, ok := m.finals[id]
	if !ok {
		return FinalRecord{}, os.ErrNotExist
	}
	return fin, nil
}

func (m *mapStore) PutCheckpoint(string, *core.Checkpoint) error { return nil }

func (m *mapStore) GetCheckpoint(string) (*core.Checkpoint, error) { return nil, os.ErrNotExist }

// finishJobs registers n jobs the way a submission does and finishes
// each with a report of its own, returning their ids in finishing
// order.
func finishJobs(t *testing.T, srv *Server, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		j := srv.allocJob(client.EstimateRequest{Dataset: "study", Owner: int64(i)})
		if err := srv.persistJob(j); err != nil {
			t.Fatal(err)
		}
		j.complete(&client.Report{Owner: int64(i)}, i)
		srv.finish(j)
		ids[i] = j.id
	}
	return ids
}

// tableCounts returns how many finished and how many live jobs the
// server holds in memory.
func tableCounts(srv *Server) (finished, live int) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for _, j := range srv.jobs {
		if j.terminal() {
			finished++
		} else {
			live++
		}
	}
	return finished, live
}

// get issues a GET against the test server and returns the status
// code and body.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestFinishedJobTableBounded: after maxFinishedJobs + k jobs finish,
// the table holds exactly maxFinishedJobs finished jobs, the newest,
// and every live job. An evicted id is gone without a store; with one
// it comes back from its final record — status and report, an empty
// trace and a stream of only the terminal line — and a record without
// a final record is never relaunched.
func TestFinishedJobTableBounded(t *testing.T) {
	const k = 7
	for _, withStore := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", withStore), func(t *testing.T) {
			cfg := Config{Logf: t.Logf}
			var store *mapStore
			if withStore {
				store = newMapStore()
				cfg.Store = store
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			defer hs.Close()
			var live []*job
			for i := 0; i < 3; i++ {
				j := srv.allocJob(client.EstimateRequest{Dataset: "study", Owner: int64(-1 - i)})
				if err := srv.persistJob(j); err != nil {
					t.Fatal(err)
				}
				live = append(live, j)
			}
			ids := finishJobs(t, srv, maxFinishedJobs+k)
			if fin, nlive := tableCounts(srv); fin != maxFinishedJobs || nlive != len(live) {
				t.Fatalf("table holds %d finished and %d live jobs, want %d and %d", fin, nlive, maxFinishedJobs, len(live))
			}
			for i, id := range ids {
				if held := srv.job(id) != nil; held != (i >= k) {
					t.Fatalf("job %d of %d (%s) in memory: %v", i, len(ids), id, held)
				}
			}
			for _, j := range live {
				if srv.job(j.id) != j {
					t.Fatalf("live job %s was evicted", j.id)
				}
			}

			code, body := get(t, hs.URL+"/v1/estimates/"+ids[0])
			if !withStore {
				if code != http.StatusNotFound || !strings.Contains(body, "not_found") {
					t.Fatalf("evicted id without a store: %d %s, want 404 not_found", code, body)
				}
				return
			}
			if code != http.StatusOK {
				t.Fatalf("evicted id with a store: %d %s", code, body)
			}
			var st client.EstimateStatus
			if err := json.Unmarshal([]byte(body), &st); err != nil {
				t.Fatal(err)
			}
			if st.Status != client.StatusDone || st.Report == nil || st.Report.Owner != 0 || st.Queries != 0 {
				t.Fatalf("restored job: %+v", st)
			}
			if code, body := get(t, hs.URL+"/v1/estimates/"+ids[0]+"/trace"); code != http.StatusOK || body != "" {
				t.Fatalf("restored job's trace: %d %q, want 200 and empty", code, body)
			}
			code, body = get(t, hs.URL+"/v1/estimates/"+ids[1]+"/stream")
			lines := strings.Split(strings.TrimSpace(body), "\n")
			var d client.PoolDelta
			if code != http.StatusOK || len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &d) != nil || !d.Done || d.Report == nil || d.Report.Owner != 1 {
				t.Fatalf("restored job's stream: %d %q, want one terminal line", code, body)
			}
			// The restored jobs count as finished again: the oldest
			// remaining ones made room.
			if fin, nlive := tableCounts(srv); fin != maxFinishedJobs || nlive != len(live) {
				t.Fatalf("after restores the table holds %d finished and %d live jobs", fin, nlive)
			}
			if srv.job(ids[k]) != nil || srv.job(ids[k+1]) != nil {
				t.Fatal("restoring evicted jobs did not evict the oldest finished ones")
			}

			// A record without a final record is not a finished job:
			// 404, and nothing runs.
			if err := store.PutJob(JobRecord{ID: "e999999", Request: client.EstimateRequest{Dataset: "study"}}); err != nil {
				t.Fatal(err)
			}
			if code, body := get(t, hs.URL+"/v1/estimates/e999999"); code != http.StatusNotFound {
				t.Fatalf("record without a final record: %d %s, want 404", code, body)
			}
			if srv.job("e999999") != nil {
				t.Fatal("a record without a final record was relaunched")
			}
		})
	}
}

// TestHeldRunSurvivesEviction: evicting a finished job leaves the run
// it holds in place, so revisions and advice keep reusing it.
func TestHeldRunSurvivesEviction(t *testing.T) {
	srv, c, owner := heldTestServer(t)
	req := client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored}
	key, err := requestKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	j := finish(t, srv, c, req)
	_, before := heldRuns(srv, key)
	finishJobs(t, srv, maxFinishedJobs)
	if srv.job(j.id) != nil {
		t.Fatal("the estimate's job was not evicted")
	}
	if n, after := heldRuns(srv, key); n != 1 || after.run != before.run || after.run == nil {
		t.Fatalf("%d runs held after eviction; the estimate's run kept: %v", n, after.run == before.run)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var apiErr *client.APIError
	if _, err := c.Get(ctx, j.id); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("evicted job without a store: %v, want 404", err)
	}
}

// TestRestoreJobReadErrorRegistersNothing: when the final record cannot
// be read, restoring a job fails without leaving a queued job behind
// that nothing will ever run, so a later attempt restores it.
func TestRestoreJobReadErrorRegistersNothing(t *testing.T) {
	store := newMapStore()
	srv, err := New(Config{Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec := JobRecord{ID: "e000042", Request: client.EstimateRequest{Dataset: "study", Owner: 7}}
	if err := store.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	if err := store.PutFinal(rec.ID, FinalRecord{Status: client.StatusDone, Report: &client.Report{Owner: 7}}); err != nil {
		t.Fatal(err)
	}
	store.finalErr = errors.New("transient read failure")
	if _, err := srv.restoreJob(rec); err == nil {
		t.Fatal("restore succeeded without its final record")
	}
	if srv.job(rec.ID) != nil {
		t.Fatal("a failed restore left the job in the table")
	}
	store.finalErr = nil
	j, err := srv.restoreJob(rec)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.snapshot(); st.Status != client.StatusDone || st.Report == nil || st.Report.Owner != 7 {
		t.Fatalf("restored job: %+v", st)
	}
}
