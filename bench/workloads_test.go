package main

import (
	"reflect"
	"testing"
)

// firstRequests draws n requests from each stream of a fresh plan.
func firstRequests(t *testing.T, w *workload, seed int64, n int) [][]request {
	t.Helper()
	in, err := makeInputs(w, smokeN, seed)
	if err != nil {
		t.Fatal(err)
	}
	p := makePlan(w, in, seed)
	out := [][]request{p.pre}
	for _, next := range p.streams {
		var rs []request
		for range n {
			rs = append(rs, next())
		}
		out = append(out, rs)
	}
	return out
}

func TestSequencesDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := firstRequests(t, w, 7, 64), firstRequests(t, w, 7, 64)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", w.name)
		}
		c := firstRequests(t, w, 8, 64)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same requests", w.name)
		}
	}
}

// TestInputsDeterministicPerSeed checks that the served rows are fixed
// and everything -seed draws repeats for one seed and moves with it.
func TestInputsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeInputs(w, smokeN, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := makeInputs(w, smokeN, 3)
		c, _ := makeInputs(w, smokeN, 4)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: inputs from seed 3 differ between calls", w.name)
		}
		if !reflect.DeepEqual(a.ds.Slab(), c.ds.Slab()) {
			t.Errorf("%s: the served rows depend on the seed", w.name)
		}
		if reflect.DeepEqual(a.perm, c.perm) {
			t.Errorf("%s: seeds 3 and 4 give the same permutation", w.name)
		}
		if len(a.fresh) > 0 && reflect.DeepEqual(a.fresh, c.fresh) {
			t.Errorf("%s: seeds 3 and 4 give the same fresh rows", w.name)
		}
	}
}

// TestZipfStream checks hot_lookup's key stream: only hot rows, skewed
// toward low ranks, private per client.
func TestZipfStream(t *testing.T) {
	w, _ := workloadByName("hot_lookup")
	in, err := makeInputs(w, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	hot := map[int]int{}
	for rank, idx := range in.hot {
		hot[idx] = rank
	}
	next := zipfStream(in, 1, 0)
	other := zipfStream(in, 1, 1)
	same := true
	top := 0
	const draws = 20000
	for range draws {
		idx := next()
		rank, ok := hot[idx]
		if !ok {
			t.Fatalf("row %d is not in the hot set", idx)
		}
		if rank == 0 {
			top++
		}
		same = same && other() == idx
	}
	if same {
		t.Error("clients 0 and 1 draw the same key sequence")
	}
	// Zipf(1.1) over 512 ranks puts ~17% of draws on rank 0.
	if frac := float64(top) / draws; frac < 0.1 || frac > 0.25 {
		t.Errorf("rank 0 drew %.3f of the keys, want ~0.17", frac)
	}
}

func TestBatchItemsRepeatEachPointOnce(t *testing.T) {
	w, _ := workloadByName("batch_scoring")
	in, err := makeInputs(w, smokeN, 1)
	if err != nil {
		t.Fatal(err)
	}
	items := in.batchItems(3)
	if len(items) != 2*batchUnique {
		t.Fatalf("%d items, want %d", len(items), 2*batchUnique)
	}
	if !reflect.DeepEqual(items[:batchUnique], items[batchUnique:]) {
		t.Error("the second half of a batch does not repeat the first")
	}
	if reflect.DeepEqual(in.batchItems(3), in.batchItems(4)) {
		t.Error("consecutive batches share points")
	}
	if !reflect.DeepEqual(in.batchItems(0), in.batchItems(len(in.bodies))) {
		t.Error("batches do not cycle through the pool")
	}
}

// TestLiveWriterRows checks the dataset live_ingest's writer expects
// after each prefix of its append/trim sequence.
func TestLiveWriterRows(t *testing.T) {
	w, _ := workloadByName("live_ingest")
	in, err := makeInputs(w, smokeN, 1)
	if err != nil {
		t.Fatal(err)
	}
	lw := &liveWriter{in: in, n: smokeN}
	if got := lw.rows(); len(got) != smokeN || !reflect.DeepEqual(got[0], in.ds.Point(0)) {
		t.Fatal("before any write the writer expects the base rows")
	}
	for a := range appendsPerTrim {
		if r := lw.next(); r.kind != opAppend || lw.cycleDone() {
			t.Fatalf("write %d is %v", a, r.kind)
		}
		got := lw.rows()
		if len(got) != smokeN+(a+1)*appendRows || !reflect.DeepEqual(got[len(got)-1], in.appendBatch(a)[appendRows-1]) {
			t.Fatalf("after %d appends the writer expects base + batches 0..%d", a+1, a)
		}
	}
	if r := lw.next(); r.kind != opDelete || !lw.cycleDone() {
		t.Fatalf("write %d is %v", appendsPerTrim, r.kind)
	}
	got := lw.rows()
	dropped := appendsPerTrim * appendRows
	if len(got) != smokeN || !reflect.DeepEqual(got[0], in.ds.Point(dropped)) || !reflect.DeepEqual(got[smokeN-1], in.appendBatch(appendsPerTrim - 1)[appendRows-1]) {
		t.Fatal("after a trim the writer expects the newest n rows")
	}
	if r := lw.next(); r.kind != opAppend || !reflect.DeepEqual(r.body, in.appendRequest(appendsPerTrim).body) {
		t.Fatal("the next cycle does not continue with the next append batch")
	}
}
