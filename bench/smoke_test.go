package main

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/vector"
)

// smokeN is the dataset size of the smoke and sequence tests.
const smokeN = 300

// TestSmokeAllWorkloads drives every workload for half a second
// against an in-process server over a 300-row dataset, checks the
// answers with the oracle, and runs the traced pass just as briefly.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := makeInputs(w, smokeN, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.NewMiner(in.ds, w.minerConfig(smokeN))
			if err != nil {
				t.Fatal(err)
			}
			srv, err := server.New(m, server.Options{DataDir: t.TempDir(), WAL: true})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				_ = srv.Close(ctx)
			}()
			hc := newHTTPClient(w.clients())
			defer hc.CloseIdleConnections()

			p := makePlan(w, in, 1)
			f := &failures{}
			pre, win, err := drive(ctx, hc, ts.URL, p, w.primary(), 0, 500*time.Millisecond, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(win.lat[w.primary()]) == 0 {
				t.Fatalf("no %v request completed in the window", w.primary())
			}
			o, err := newOracle(in.ds, w)
			if err != nil {
				t.Fatal(err)
			}
			o.checkPre(in, pre, f)
			if p.writer != nil {
				// Every acknowledged write must be in the served dataset.
				ds, err := vector.FromRows(p.writer.rows())
				if err != nil {
					t.Fatal(err)
				}
				if o, err = newOracle(ds, w); err != nil {
					t.Fatal(err)
				}
			}
			after, err := probe(ctx, hc, ts.URL, []int{0, smokeN - 1}, f)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range []int{0, smokeN - 1} {
				if err := o.checkQuery(row, after.bodies[i]); err != nil {
					f.fail(err.Error())
				}
			}
			if f.failed > 0 || f.attempted < len(p.pre) {
				t.Fatalf("%d of %d requests failed: %v", f.failed, f.attempted, f.first)
			}

			tr, tf, err := runTraced(ctx, w, in, 1, 500*time.Millisecond, t.TempDir(), "")
			if err != nil {
				t.Fatal(err)
			}
			if tf.failed > 0 {
				t.Fatalf("traced pass: %d of %d requests failed: %v", tf.failed, tf.attempted, tf.first)
			}
			if _, err := collect(perLayer, tr.Metrics); err != nil {
				t.Fatal(err)
			}
		})
	}
}
