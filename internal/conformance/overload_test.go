package conformance

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/overload"
	"repro/internal/overload/faultinject"
	"repro/internal/server"
)

// Overload isolation is a conformance property, not just a latency
// one: while one dataset is being driven into its circuit breaker by
// injected faults, a sibling dataset on the same process must answer
// byte-identically to the same dataset on an unloaded reference
// server. Shedding that perturbed sibling answers — shared caches,
// cross-dataset admission, anything — would make overload protection
// a correctness bug.

// canonicalQuery runs one /query and returns the response body with
// the wall-time field stripped and keys re-marshalled in sorted order,
// so two servers' answers compare as exact strings.
func canonicalQuery(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("query %s: status %d (body %s)", body, rec.Code, rec.Body.String())
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "elapsed_ms") // wall time is the only field allowed to differ
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestDegradedDatasetDoesNotPerturbSiblingAnswers(t *testing.T) {
	sp := DefaultSpecs()[0]
	newServer := func(opts server.Options) *server.Server {
		m, err := sp.Miner(core.BackendAuto, core.PolicyTSF)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = srv.Close(ctx)
		})
		return srv
	}

	clk := faultinject.NewClock(time.Unix(1_700_000_000, 0))
	inj := faultinject.NewInjector()
	degraded := newServer(server.Options{
		Overload: overload.Config{
			MinSamples:   5,
			FailureRatio: 0.5,
			CoolDown:     5 * time.Second,
			Clock:        clk.Now,
		},
		FaultHook: inj.Hook(),
	})
	reference := newServer(server.Options{})

	// The same sibling dataset — deterministic generator, same seed and
	// miner parameters — on both servers.
	const loadSibling = `{"name": "sibling", "gen": "synthetic", "n": 100, "d": 4, "planted": 3, "k": 4, "tq": 0.9, "seed": 77}`
	for _, srv := range []*server.Server{degraded, reference} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/datasets/load", strings.NewReader(loadSibling)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("loading sibling: status %d (body %s)", rec.Code, rec.Body.String())
		}
	}

	// Drive the degraded server's default dataset into its breaker with
	// 100% injected timeouts.
	inj.Set(server.DefaultDatasetName, faultinject.Fault{Err: context.DeadlineExceeded})
	dh := degraded.Handler()
	for i := 0; i < 5; i++ {
		rec := httptest.NewRecorder()
		dh.ServeHTTP(rec, httptest.NewRequest("POST", "/query",
			strings.NewReader(fmt.Sprintf(`{"index": %d}`, i))))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("faulted default query %d: status %d, want 503", i, rec.Code)
		}
	}
	assertBreaker := func(srv *server.Server, name, want string) {
		t.Helper()
		for _, d := range srv.Stats().Datasets {
			if d.Name == name {
				if d.Overload.BreakerState != want {
					t.Fatalf("dataset %s breaker = %s, want %s", name, d.Overload.BreakerState, want)
				}
				return
			}
		}
		t.Fatalf("dataset %s not in stats", name)
	}
	assertBreaker(degraded, server.DefaultDatasetName, "open")

	// With the default dataset's breaker open, every sibling answer on
	// the degraded server must equal the unloaded reference's, byte for
	// byte. Both row queries and ad-hoc points go through.
	bodies := make([]string, 0, 22)
	for i := 0; i < 20; i++ {
		bodies = append(bodies, fmt.Sprintf(`{"dataset": "sibling", "index": %d}`, i*5))
	}
	bodies = append(bodies,
		`{"dataset": "sibling", "point": [0.5, 0.5, 0.5, 0.5], "include_all": true}`,
		`{"dataset": "sibling", "index": 7, "include_all": true}`,
	)
	for _, body := range bodies {
		want := canonicalQuery(t, reference.Handler(), body)
		got := canonicalQuery(t, dh, body)
		if got != want {
			t.Fatalf("sibling answer diverged under a degraded neighbour\nquery: %s\n ref:  %s\n got:  %s", body, want, got)
		}
	}
	assertBreaker(degraded, "sibling", "closed")
	assertBreaker(degraded, server.DefaultDatasetName, "open")
}
