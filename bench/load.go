package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// newHTTPClient returns a keep-alive client holding at most conns
// connections: the benchmark never loads the server through more
// connections than it has closed-loop clients.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
		Timeout: 2 * time.Minute,
	}
}

// send issues one request and reads the whole answer. Headers in hdr
// are added to the request (the traced pass tags requests with them).
func send(ctx context.Context, hc *http.Client, base string, r request, hdr http.Header) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// failures counts attempted and failed requests and keeps the first
// few failure messages.
type failures struct {
	mu        sync.Mutex
	attempted int
	failed    int
	first     []string
}

func (f *failures) record(r request, status int, body []byte, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted++
	if err == nil && status/100 == 2 {
		return true
	}
	f.failed++
	if len(f.first) < 5 {
		msg := fmt.Sprintf("%s %s: status %d %s", r.method, r.path, status, bytes.TrimSpace(body))
		if err != nil {
			msg = fmt.Sprintf("%s %s: %v", r.method, r.path, err)
		}
		f.first = append(f.first, msg)
	}
	return false
}

// fail counts a request that returned 2xx with a wrong answer.
func (f *failures) fail(msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failed++
	if len(f.first) < 5 {
		f.first = append(f.first, msg)
	}
}

// answered is one pre-phase request with its response body.
type answered struct {
	req  request
	body []byte
}

// runPre sends the plan's pre-phase one request at a time and returns
// the answers for the oracle.
func runPre(ctx context.Context, hc *http.Client, base string, reqs []request, f *failures) ([]answered, error) {
	out := make([]answered, 0, len(reqs))
	for _, r := range reqs {
		status, body, err := send(ctx, hc, base, r, nil)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if f.record(r, status, body, err) {
			out = append(out, answered{r, body})
		}
	}
	return out, nil
}

// window is the outcome of a closed-loop run's measured window.
type window struct {
	seconds float64
	// lat[k] holds the latencies (ms) of kind-k requests that started
	// and finished inside the window.
	lat [numOpKinds][]float64
}

// runClosedLoop runs every stream as its own closed-loop client: each
// sends its next request only after the previous answer is read, the
// model for callers that wait on each reply. Requests before warm-up
// ends are sent but not timed; clients stop at the end of the window.
func runClosedLoop(ctx context.Context, hc *http.Client, base string, streams []func() request, warmup, measure time.Duration, f *failures) (*window, error) {
	start := time.Now()
	t0, t1 := start.Add(warmup), start.Add(warmup+measure)
	per := make([]*window, len(streams))
	var wg sync.WaitGroup
	wg.Add(len(streams))
	for i, next := range streams {
		w := &window{}
		per[i] = w
		go func() {
			defer wg.Done()
			// Every request a stream generates is sent: live_ingest's
			// writer counts them to know the dataset it must find.
			for ctx.Err() == nil && time.Now().Before(t1) {
				r := next()
				s := time.Now()
				status, body, err := send(ctx, hc, base, r, nil)
				e := time.Now()
				if ctx.Err() != nil {
					return
				}
				if f.record(r, status, body, err) && !s.Before(t0) && !e.After(t1) {
					w.lat[r.kind] = append(w.lat[r.kind], float64(e.Sub(s))/float64(time.Millisecond))
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &window{seconds: measure.Seconds()}
	for _, w := range per {
		out.add(w)
	}
	return out, nil
}

// add appends o's samples and length to w.
func (w *window) add(o *window) {
	w.seconds += o.seconds
	for k := range w.lat {
		w.lat[k] = append(w.lat[k], o.lat[k]...)
	}
}
