package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func jobAccepted(id, hash string) Event {
	return Event{Type: EvJobAccepted, Job: &JobEvent{
		ID: id, Tenant: "default", SpecHash: hash,
		Spec: json.RawMessage(`{"workload":{"name":"gcc2k"}}`), Label: "composite",
	}}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, events, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh wal replayed %d events", len(events))
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(jobAccepted(fmt.Sprintf("j-%06d", i+1), fmt.Sprintf("h%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, events, err = OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("replayed %d events, want 10", len(events))
	}
	if events[3].Job.ID != "j-000004" || events[3].Job.SpecHash != "h3" {
		t.Fatalf("event 3 = %+v", events[3].Job)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(jobAccepted(fmt.Sprintf("j-%06d", i+1), "h")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash mid-write: append garbage that parses as a frame
	// header pointing past EOF.
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, events, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("replayed %d events after torn tail, want 5", len(events))
	}
	// The torn bytes must be gone: appending and replaying again stays
	// intact.
	if err := w2.Append(jobAccepted("j-000006", "h6")); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, events, err = OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 6 || events[5].Job.ID != "j-000006" {
		t.Fatalf("after truncation + append: %d events", len(events))
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.Append(jobAccepted(fmt.Sprintf("j-%06d", i+1), "hash-of-some-length")); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %v", segs)
	}
	_, events, err := OpenWAL(dir, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 20 {
		t.Fatalf("replayed %d events across segments, want 20", len(events))
	}
}

func TestWALConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, WALOptions{SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- w.Append(jobAccepted(fmt.Sprintf("j-%06d", i+1), "h"))
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, events, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != n {
		t.Fatalf("replayed %d events, want %d", len(events), n)
	}
}

// TestWALBatchOneFsyncCrashPrefix pins the batched append: several
// events cost one fsync, and a crash anywhere inside the batch (the
// segment truncated at every byte of it) replays as a prefix of the
// committed history, never as a reordering or a corrupt record.
func TestWALBatchOneFsyncCrashPrefix(t *testing.T) {
	dir := t.TempDir()
	var fsyncs int
	w, _, err := OpenWAL(dir, WALOptions{FsyncObserver: func(float64) { fsyncs++ }})
	if err != nil {
		t.Fatal(err)
	}
	history := []Event{jobAccepted("j-000001", "h0")}
	if err := w.Append(history[0]); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segmentName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	batchStart := int(st.Size())
	batch := []Event{
		{Type: EvSweepStarted, Sweep: &SweepEvent{ID: "s-0001", Tenant: "default", Total: 2,
			Points: []SweepPoint{{Hash: "ha", Spec: json.RawMessage(`{}`)}, {Hash: "hb", Spec: json.RawMessage(`{}`)}}}},
		{Type: EvPointDone, Sweep: &SweepEvent{ID: "s-0001", Hash: "ha"}},
		{Type: EvPointDone, Sweep: &SweepEvent{ID: "s-0001", Hash: "hb"}},
		{Type: EvSweepDone, Sweep: &SweepEvent{ID: "s-0001"}},
	}
	fsyncs = 0
	if err := w.Append(batch...); err != nil {
		t.Fatal(err)
	}
	if fsyncs != 1 {
		t.Fatalf("a %d-event batch cost %d fsyncs, want 1", len(batch), fsyncs)
	}
	w.Close()
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	committed := append(history, batch...)
	want := make([]string, len(committed))
	for i, ev := range committed {
		b, _ := json.Marshal(ev)
		want[i] = string(b)
	}

	crash := t.TempDir()
	crashSeg := filepath.Join(crash, segmentName(1))
	replayed := len(history)
	for cut := batchStart; cut <= len(full); cut++ {
		if err := os.WriteFile(crashSeg, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w, events, err := OpenWAL(crash, WALOptions{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		w.Close()
		if len(events) < replayed {
			t.Fatalf("cut at %d replayed %d events, fewer than the %d of an earlier cut", cut, len(events), replayed)
		}
		replayed = len(events)
		for i, ev := range events {
			b, _ := json.Marshal(ev)
			if string(b) != want[i] {
				t.Fatalf("cut at %d: event %d = %s, want %s", cut, i, b, want[i])
			}
		}
	}
	if replayed != len(committed) {
		t.Fatalf("the whole segment replayed %d events, want %d", replayed, len(committed))
	}
}

func TestFoldAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Three jobs: one finishes, one fails, one stays pending.
	for i, id := range []string{"j-000001", "j-000002", "j-000003"} {
		if err := st.AppendJobAccepted(id, "default", fmt.Sprintf("h%d", i),
			json.RawMessage(`{}`), "lvp", 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.AppendJobDone("j-000001", "h0"); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJobFailed("j-000002", "h1", "deadline"); err != nil {
		t.Fatal(err)
	}
	// A sweep with one of two points settled.
	if err := st.AppendSweepStarted("s-0001", "default", 2, []SweepPoint{
		{Hash: "ha", Spec: json.RawMessage(`{}`)},
		{Hash: "hb", Spec: json.RawMessage(`{}`)},
	}, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendPointDone("s-0001", "ha"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	state := st2.State()
	if len(state.PendingJobs) != 1 || state.PendingJobs[0].ID != "j-000003" {
		t.Fatalf("pending jobs = %+v, want just j-000003", state.PendingJobs)
	}
	if state.MaxJobID != 3 {
		t.Fatalf("MaxJobID = %d, want 3", state.MaxJobID)
	}
	if len(state.PendingSweeps) != 1 {
		t.Fatalf("pending sweeps = %+v", state.PendingSweeps)
	}
	sw := state.PendingSweeps[0]
	if sw.ID != "s-0001" || sw.Done["ha"] != "" || len(sw.Done) != 1 {
		t.Fatalf("sweep fold = %+v", sw)
	}
	if state.MaxSweepID != 1 {
		t.Fatalf("MaxSweepID = %d, want 1", state.MaxSweepID)
	}

	// Open compacted the log: a third open must fold identically from
	// the rewritten segments.
	st2.Close()
	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	s3 := st3.State()
	if len(s3.PendingJobs) != 1 || s3.PendingJobs[0].ID != "j-000003" ||
		len(s3.PendingSweeps) != 1 || len(s3.PendingSweeps[0].Done) != 1 {
		t.Fatalf("state after compaction = %+v", s3)
	}
}

func TestWarehousePersistsAndSupersedes(t *testing.T) {
	dir := t.TempDir()
	wh, err := OpenWarehouse(dir)
	if err != nil {
		t.Fatal(err)
	}
	put := func(hash, workload string, ipc float64) {
		t.Helper()
		res, _ := json.Marshal(map[string]any{"workload": workload, "ipc": ipc})
		if err := wh.Put(RunRecord{SpecHash: hash, Tenant: "default",
			Workload: workload, Predictor: "composite", Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	put("aaa", "gcc2k", 1.0)
	put("bbb", "mcf2k", 2.0)
	put("aaa", "gcc2k", 1.5) // supersedes
	if wh.Len() != 2 {
		t.Fatalf("Len = %d, want 2", wh.Len())
	}
	wh.Close()

	wh2, err := OpenWarehouse(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wh2.Close()
	rec, ok := wh2.Get("aaa")
	if !ok {
		t.Fatal("aaa missing after reopen")
	}
	var got map[string]any
	json.Unmarshal(rec.Result, &got)
	if got["ipc"].(float64) != 1.5 {
		t.Fatalf("superseded record survived: %v", got)
	}
	if l := wh2.List(Filter{Workload: "mcf2k"}); len(l) != 1 || l[0].SpecHash != "bbb" {
		t.Fatalf("List(workload=mcf2k) = %+v", l)
	}
	if l := wh2.List(Filter{Limit: 1}); len(l) != 1 {
		t.Fatalf("List(limit=1) = %+v", l)
	}
}

func TestWarehouseContextsFilter(t *testing.T) {
	dir := t.TempDir()
	wh, err := OpenWarehouse(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	res, _ := json.Marshal(map[string]any{"ipc": 1.0})
	put := func(hash string, contexts int) {
		t.Helper()
		if err := wh.Put(RunRecord{SpecHash: hash, Result: res, Contexts: contexts}); err != nil {
			t.Fatal(err)
		}
	}
	put("old", 0) // record from before the contexts column existed
	put("one", 1)
	put("smt2", 2)
	put("smt4", 4)

	want := func(f Filter, hashes ...string) {
		t.Helper()
		got := wh.List(f)
		if len(got) != len(hashes) {
			t.Fatalf("List(%+v) returned %d records, want %d", f, len(got), len(hashes))
		}
		for i, h := range hashes {
			if got[i].SpecHash != h {
				t.Fatalf("List(%+v)[%d] = %s, want %s", f, i, got[i].SpecHash, h)
			}
		}
	}
	ctx := func(n int) *int { return &n }
	// Single-context is one class: 0 and 1 select pre-column records too.
	want(Filter{Contexts: ctx(1)}, "one", "old")
	want(Filter{Contexts: ctx(0)}, "one", "old")
	want(Filter{Contexts: ctx(2)}, "smt2")
	want(Filter{Contexts: ctx(4)}, "smt4")
	want(Filter{Contexts: ctx(3)})
	want(Filter{}, "smt4", "smt2", "one", "old")
}

func TestWarehouseSourceFilter(t *testing.T) {
	dir := t.TempDir()
	wh, err := OpenWarehouse(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	res, _ := json.Marshal(map[string]any{"ipc": 1.0})
	put := func(hash, workload string) {
		t.Helper()
		if err := wh.Put(RunRecord{SpecHash: hash, Workload: workload, Result: res}); err != nil {
			t.Fatal(err)
		}
	}
	put("syn", "gcc2k")
	put("synsalt", "gcc2k#3")
	put("ext", "ext:0123456789abcdef")
	put("extsalt", "ext:0123456789abcdef#2")

	want := func(f Filter, hashes ...string) {
		t.Helper()
		got := wh.List(f)
		if len(got) != len(hashes) {
			t.Fatalf("List(%+v) returned %d records, want %d", f, len(got), len(hashes))
		}
		for i, h := range hashes {
			if got[i].SpecHash != h {
				t.Fatalf("List(%+v)[%d] = %s, want %s", f, i, got[i].SpecHash, h)
			}
		}
	}
	// Salted external streams are still external: the salt changes the
	// replay offset, not the provenance.
	want(Filter{Source: "external"}, "extsalt", "ext")
	want(Filter{Source: "synthetic"}, "synsalt", "syn")
	want(Filter{}, "extsalt", "ext", "synsalt", "syn")
	// Source composes with the other columns.
	want(Filter{Source: "external", SpecHash: "ext"}, "ext")
	want(Filter{Source: "synthetic", SpecHash: "ext"})
}

func TestWarehouseTornTail(t *testing.T) {
	dir := t.TempDir()
	wh, err := OpenWarehouse(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := json.Marshal(map[string]any{"ipc": 1.0})
	if err := wh.Put(RunRecord{SpecHash: "aaa", Result: res}); err != nil {
		t.Fatal(err)
	}
	wh.Close()
	f, err := os.OpenFile(filepath.Join(dir, warehouseFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03}) // torn frame
	f.Close()

	wh2, err := OpenWarehouse(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer wh2.Close()
	if wh2.Len() != 1 {
		t.Fatalf("Len after torn tail = %d, want 1", wh2.Len())
	}
	if _, ok := wh2.Get("aaa"); !ok {
		t.Fatal("record lost to torn tail truncation")
	}
}

func TestTrailingID(t *testing.T) {
	cases := map[string]uint64{
		"j-000042": 42, "s-0007": 7, "j-": 0, "": 0, "plain": 0, "j-9": 9,
	}
	for in, want := range cases {
		if got := trailingID(in); got != want {
			t.Errorf("trailingID(%q) = %d, want %d", in, got, want)
		}
	}
}
