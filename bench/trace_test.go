package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 120, End: 150}}, 70},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping", []span{{Start: 110, End: 140}, {Start: 130, End: 160}}, 50},
		{"nested", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"unsorted overlap", []span{{Start: 150, End: 180}, {Start: 105, End: 155}}, 25},
		{"adjacent", []span{{Start: 110, End: 120}, {Start: 120, End: 130}}, 80},
		{"sticks out", []span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"outside", []span{{Start: 0, End: 100}, {Start: 200, End: 300}}, 100},
		{"covers all", []span{{Start: 90, End: 150}, {Start: 140, End: 210}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestMiddlewareRecordsTaggedRequests checks the handler span carries
// the request id and parent from the headers, and that untagged
// requests leave no span behind.
func TestMiddlewareRecordsTaggedRequests(t *testing.T) {
	tr := newTracer()
	h := tr.middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header = tagHeader(7, 42)
	h.ServeHTTP(httptest.NewRecorder(), req)
	s := <-tr.handled
	if s.Req != 7 || s.Parent != 42 || s.Name != "server.handler" || s.End < s.Start {
		t.Errorf("handler span %+v", s)
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if len(tr.spans) != 1 {
		t.Errorf("%d spans after one tagged and one untagged request, want 1", len(tr.spans))
	}
}
