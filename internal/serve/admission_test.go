package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"morphcache/internal/core"
	"morphcache/internal/topology"
)

func doReq(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestTenantRateLimit(t *testing.T) {
	cfg := testConfig("alpha", "beta")
	cfg.Policy = nopPolicy{}
	cfg.Admission = AdmissionConfig{TenantRPS: 5, TenantBurst: 2}
	c := mustCache(t, cfg)
	now := time.Unix(1000, 0)
	c.adm.now = func() time.Time { return now }
	h := c.Handler()

	for i := 0; i < 2; i++ {
		if rec := doReq(h, "PUT", "/cache/alpha/k", "v"); rec.Code != http.StatusNoContent {
			t.Fatalf("burst request %d = %d, want 204", i, rec.Code)
		}
	}
	rec := doReq(h, "PUT", "/cache/alpha/k", "v")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	// Budgets are per tenant: beta is unaffected by alpha's exhaustion.
	if rec := doReq(h, "PUT", "/cache/beta/k", "v"); rec.Code != http.StatusNoContent {
		t.Fatalf("beta request = %d, want 204", rec.Code)
	}
	// Untenanted routes bypass the bucket.
	if rec := doReq(h, "GET", "/topology", ""); rec.Code != http.StatusOK {
		t.Fatalf("topology = %d, want 200", rec.Code)
	}
	// Tokens accrue with time.
	now = now.Add(time.Second)
	if rec := doReq(h, "GET", "/cache/alpha/k", ""); rec.Code != http.StatusOK {
		t.Fatalf("request after refill = %d, want 200", rec.Code)
	}
}

// TestInFlightCapUnderFlood holds the server at its in-flight cap with
// requests blocked mid-body, floods it with 2x capacity, and verifies
// the overflow sheds with 429 + Retry-After while the cap is never
// exceeded (the acceptance flood test).
func TestInFlightCapUnderFlood(t *testing.T) {
	const capN = 2
	cfg := testConfig("alpha")
	cfg.Policy = nopPolicy{}
	cfg.Admission = AdmissionConfig{MaxInFlight: capN}
	c := mustCache(t, cfg)
	h := c.Handler()

	var wg sync.WaitGroup
	var admitted atomic.Int64
	writers := make([]*io.PipeWriter, capN)
	// Fill the cap with PUTs whose bodies never finish.
	for i := range writers {
		pr, pw := io.Pipe()
		writers[i] = pw
		wg.Add(1)
		go func(i int, body io.Reader) {
			defer wg.Done()
			req := httptest.NewRequest("PUT", fmt.Sprintf("/cache/alpha/held%d", i), body)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code == http.StatusNoContent {
				admitted.Add(1)
			}
		}(i, pr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.InFlight() != capN {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight = %d, never reached cap %d", c.InFlight(), capN)
		}
		time.Sleep(time.Millisecond)
	}
	// Flood at 2x capacity: every extra request must shed immediately.
	for i := 0; i < 2*capN; i++ {
		rec := doReq(h, "GET", "/cache/alpha/held0", "")
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("flood request %d = %d, want 429", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		if n := c.InFlight(); n > capN {
			t.Fatalf("in-flight %d exceeded cap %d", n, capN)
		}
	}
	// Release the held requests; capacity frees up and service resumes.
	for _, pw := range writers {
		pw.Close()
	}
	wg.Wait()
	if admitted.Load() != capN {
		t.Fatalf("admitted = %d, want %d", admitted.Load(), capN)
	}
	if rec := doReq(h, "PUT", "/cache/alpha/after", "v"); rec.Code != http.StatusNoContent {
		t.Fatalf("request after release = %d, want 204", rec.Code)
	}
	if c.InFlight() != 0 {
		t.Fatalf("in-flight = %d after drain, want 0", c.InFlight())
	}
}

func TestRequestDeadline(t *testing.T) {
	cfg := testConfig("alpha")
	cfg.Policy = nopPolicy{}
	cfg.Admission = AdmissionConfig{RequestTimeout: time.Nanosecond}
	c := mustCache(t, cfg)
	h := c.Handler()
	// The 1ns deadline has passed by the time the body is consumed; the
	// write must be rejected with 408, not applied.
	rec := doReq(h, "PUT", "/cache/alpha/slow", "v")
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("expired-deadline PUT = %d, want 408", rec.Code)
	}
	if _, err := c.Get("alpha", "slow"); err != ErrNotFound {
		t.Fatalf("timed-out write was applied: %v", err)
	}
}

func TestClientDisconnectIs400(t *testing.T) {
	c := mustCache(t, testConfig("alpha"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("PUT", "/cache/alpha/k", strings.NewReader("v")).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("canceled-client PUT = %d, want 400", rec.Code)
	}
}

func TestAdmissionValidation(t *testing.T) {
	for _, bad := range []AdmissionConfig{
		{TenantRPS: -1},
		{TenantBurst: -1},
		{MaxInFlight: -1},
		{RequestTimeout: -time.Second},
	} {
		cfg := testConfig("alpha")
		cfg.Admission = bad
		if _, err := New(cfg, nil); err == nil {
			t.Fatalf("invalid admission config %+v accepted", bad)
		}
	}
}

// flipPolicy regroups on every epoch, alternating merged and private, so
// concurrent readers race real repartitions.
type flipPolicy struct{ on bool }

func (p *flipPolicy) Name() string { return "test-flip" }

func (p *flipPolicy) EndEpoch(_ int, m core.Machine) (int, bool) {
	p.on = !p.on
	groups := [][]int{{0}, {1}, {2}, {3}}
	if p.on {
		groups = [][]int{{0, 1}, {2, 3}}
	}
	g, err := topology.FromGroups(4, groups)
	if err != nil {
		panic(err)
	}
	if err := m.SetTopology(topology.Topology{L2: g, L3: g}); err != nil {
		panic(err)
	}
	return 1, p.on
}

// TestStatusRacesRepartition hammers Status() and GET /topology while
// EndEpoch flips the partition map, with live traffic — run under -race
// this proves topology snapshots never observe a half-applied map.
func TestStatusRacesRepartition(t *testing.T) {
	cfg := testConfig("alpha", "beta")
	cfg.Policy = &flipPolicy{}
	c := mustCache(t, cfg)
	h := c.Handler()
	for i := 0; i < 64; i++ {
		c.Set("alpha", fmt.Sprintf("k%d", i), []byte("v"))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := c.Status()
				if st.Slots != 4 || len(st.Tenants) != 2 {
					panic(fmt.Sprintf("torn status: %+v", st))
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := doReq(h, "GET", "/topology", "")
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("topology = %d", rec.Code))
				}
			}
		}()
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d", i%64)
				c.Get("alpha", key)
				if i%7 == 0 {
					c.Set("beta", key, []byte("v"))
				}
			}
		}(w)
	}
	for e := 0; e < 200; e++ {
		c.EndEpoch()
	}
	close(stop)
	wg.Wait()
	checkConsistency(t, c)
}
