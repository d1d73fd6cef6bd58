package sessionstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/guard"
	"repro/internal/admission"
)

// testState is a stand-in session state with enough body to make
// compression and corruption meaningful.
type testState struct {
	ID      string    `json:"id"`
	Hops    int       `json:"hops"`
	Samples []float64 `json:"samples"`
}

func newTestStore(t *testing.T, cfg Config) *Store[testState] {
	t.Helper()
	s, err := New[testState](cfg, JSONCodec[testState]{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func state(id string, n int) testState {
	st := testState{ID: id, Hops: n, Samples: make([]float64, n)}
	for i := range st.Samples {
		st.Samples[i] = float64(i) * 0.25
	}
	return st
}

func TestStoreRoundTripAcrossTiers(t *testing.T) {
	s := newTestStore(t, Config{MaxHot: 2})
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("call-%d", i)
		if err := s.Put(id, admission.Standard, state(id, 40+i)); err != nil {
			t.Fatal(err)
		}
	}
	hot, warm := s.Len()
	if hot != 2 || warm != 3 {
		t.Fatalf("tiers = (%d hot, %d warm), want (2, 3)", hot, warm)
	}
	if s.WarmBytes() <= 0 {
		t.Fatal("warm tier holds sessions but no bytes")
	}
	// Every session — demoted or not — must come back intact.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("call-%d", i)
		got, ok, err := s.Get(id)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = ok=%v err=%v", id, ok, err)
		}
		if got.ID != id || got.Hops != 40+i || len(got.Samples) != 40+i {
			t.Fatalf("Get(%s) returned wrong state: %+v", id, got)
		}
	}
}

func TestStoreEvictionOrderPriorityThenRecency(t *testing.T) {
	s := newTestStore(t, Config{MaxHot: 2})
	if err := s.Put("interactive", admission.Interactive, state("interactive", 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("background", admission.Background, state("background", 10)); err != nil {
		t.Fatal(err)
	}
	// A third Put must demote the background session despite it being
	// more recent than the interactive one.
	if err := s.Put("standard", admission.Standard, state("standard", 10)); err != nil {
		t.Fatal(err)
	}
	if _, warm := s.Len(); warm != 1 {
		t.Fatalf("want exactly one demotion, warm=%d", warm)
	}
	if hotTier(s)["background"] {
		t.Fatal("background session survived in hot over higher-priority traffic")
	}
	// Same priority: the least recently touched goes first.
	s2 := newTestStore(t, Config{MaxHot: 2})
	for _, id := range []string{"s1", "s2"} {
		if err := s2.Put(id, admission.Standard, state(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s2.Get("s1"); err != nil { // touch: s1 is now more recent than s2
		t.Fatal(err)
	}
	if err := s2.Put("s3", admission.Standard, state("s3", 10)); err != nil {
		t.Fatal(err)
	}
	hot := hotTier(s2)
	if !hot["s1"] || hot["s2"] || !hot["s3"] {
		t.Fatalf("want {s1, s3} hot after evicting the least recent peer, got %v", hot)
	}
}

// hotTier reports which ids are currently hot.
func hotTier[S any](s *Store[S]) map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]bool)
	for id, e := range s.entries {
		if e.hot {
			out[id] = true
		}
	}
	return out
}

func TestStorePressureRefusalLeavesStoreUnchanged(t *testing.T) {
	s := newTestStore(t, Config{MaxHot: 1, MaxWarmBytes: 1})
	if err := s.Put("a", admission.Standard, state("a", 50)); err != nil {
		t.Fatal(err)
	}
	err := s.Put("b", admission.Standard, state("b", 50))
	var pe *PressureError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PressureError, got %v", err)
	}
	if _, ok, _ := s.Get("b"); ok {
		t.Fatal("refused session left behind in the store")
	}
	got, ok, err := s.Get("a")
	if err != nil || !ok || got.ID != "a" {
		t.Fatalf("surviving session damaged by the refusal: ok=%v err=%v", ok, err)
	}
	hot, warm := s.Len()
	if hot != 1 || warm != 0 {
		t.Fatalf("tiers moved under a refused Put: (%d, %d)", hot, warm)
	}
}

func TestStoreTakeRemoves(t *testing.T) {
	s := newTestStore(t, Config{MaxHot: 1})
	if err := s.Put("a", admission.Standard, state("a", 30)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", admission.Standard, state("b", 30)); err != nil {
		t.Fatal(err)
	}
	// "a" was demoted; Take must rehydrate and remove it.
	got, ok, err := s.Take("a")
	if err != nil || !ok || got.ID != "a" || got.Hops != 30 {
		t.Fatalf("Take = (%+v, %v, %v)", got, ok, err)
	}
	if _, ok, _ := s.Get("a"); ok {
		t.Fatal("taken session still present")
	}
	if _, ok, _ := s.Take("missing"); ok {
		t.Fatal("Take invented a session")
	}
	if !s.Drop("b") || s.Drop("b") {
		t.Fatal("Drop bookkeeping wrong")
	}
}

func TestStoreCheckpointRecoverRoundTrip(t *testing.T) {
	s := newTestStore(t, Config{MaxHot: 2})
	want := map[string]testState{}
	prios := []admission.Priority{admission.Background, admission.Standard, admission.Interactive}
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("call-%d", i)
		st := state(id, 20+7*i)
		want[id] = st
		if err := s.Put(id, prios[i%3], st); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	n, err := s.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != buf.Len() {
		t.Fatalf("Checkpoint reported %d bytes, wrote %d", n, buf.Len())
	}

	fresh := newTestStore(t, Config{MaxHot: 2})
	recovered, faults, err := fresh.Recover(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) != 0 {
		t.Fatalf("clean checkpoint reported faults: %v", faults[0])
	}
	if recovered != len(want) {
		t.Fatalf("recovered %d of %d sessions", recovered, len(want))
	}
	for id, st := range want {
		got, ok, err := fresh.Take(id)
		if err != nil || !ok {
			t.Fatalf("Take(%s) after recovery: ok=%v err=%v", id, ok, err)
		}
		if got.Hops != st.Hops || len(got.Samples) != len(st.Samples) {
			t.Fatalf("recovered state mismatch for %s: %+v", id, got)
		}
	}
}

func TestStoreRecoverSalvagesAroundCorruption(t *testing.T) {
	s := newTestStore(t, Config{})
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("call-%d", i)
		if err := s.Put(id, admission.Standard, state(id, 60)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit inside the second record's payload: that session must
	// come back as a typed fault, the other three must all survive.
	recs, _, err := guard.ReadRecords(bytes.NewReader(data))
	if err != nil || len(recs) != 4 {
		t.Fatalf("setup: %d records, err %v", len(recs), err)
	}
	off := 16 + len(recs[0]) + 16 + len(recs[1])/2
	data[off] ^= 0x10

	fresh := newTestStore(t, Config{})
	recovered, faults, err := fresh.Recover(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 3 {
		t.Fatalf("recovered %d sessions, want 3", recovered)
	}
	if len(faults) != 1 {
		t.Fatalf("want exactly 1 fault, got %d", len(faults))
	}
	var cre *guard.CorruptRecordError
	var cse *CorruptStateError
	if !errors.As(faults[0], &cre) && !errors.As(faults[0], &cse) {
		t.Fatalf("fault is not typed: %T %v", faults[0], faults[0])
	}
	// Recovered + faulted must cover every checkpointed session: nothing
	// silently dropped.
	if got := len(fresh.IDs()); got+len(faults) < 4 {
		t.Fatalf("%d recovered + %d faults < 4 sessions", got, len(faults))
	}
}

func TestStoreRecoverCorruptStateBodySurfacesTyped(t *testing.T) {
	// An envelope that parses but whose blob is not a flate stream must
	// be reported eagerly at recovery.
	var buf bytes.Buffer
	if _, err := guard.WriteRecord(&buf, []byte(`{"id":"call-x","priority":0,"blob":"Z2FyYmFnZQ=="}`)); err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, Config{})
	recovered, faults, err := s.Recover(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 0 || len(faults) != 1 {
		t.Fatalf("recovered=%d faults=%d", recovered, len(faults))
	}
	var cse *CorruptStateError
	if !errors.As(faults[0], &cse) || cse.ID != "call-x" {
		t.Fatalf("fault not a *CorruptStateError with the session id: %v", faults[0])
	}
}

func TestStoreSaveFileRecoverFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sessions.vcr")
	s := newTestStore(t, Config{})
	if err := s.Put("a", admission.Interactive, state("a", 25)); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp debris after save: %s", e.Name())
		}
	}
	fresh := newTestStore(t, Config{})
	recovered, faults, err := fresh.RecoverFile(path)
	if err != nil || len(faults) != 0 || recovered != 1 {
		t.Fatalf("RecoverFile = (%d, %v, %v)", recovered, faults, err)
	}
	// Priority survives the round trip: recovered sessions demote after
	// live higher-priority traffic.
	fresh.mu.Lock()
	prio := fresh.entries["a"].prio
	fresh.mu.Unlock()
	if prio != admission.Interactive {
		t.Fatalf("priority lost in recovery: %v", prio)
	}

	// A missing file is a fresh start, not an error.
	n, faults, err := fresh.RecoverFile(filepath.Join(dir, "absent.vcr"))
	if n != 0 || faults != nil || err != nil {
		t.Fatalf("missing file: (%d, %v, %v)", n, faults, err)
	}
}

func TestStoreConcurrentChurn(t *testing.T) {
	s := newTestStore(t, Config{MaxHot: 4})
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var err error
			defer func() { done <- err }()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("w%d-call-%d", w, i%10)
				if perr := s.Put(id, admission.Priority(i%3-1), state(id, 30)); perr != nil {
					err = perr
					return
				}
				if _, _, gerr := s.Get(id); gerr != nil {
					err = gerr
					return
				}
				if i%7 == 0 {
					if _, _, terr := s.Take(id); terr != nil {
						err = terr
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := newTestStore(t, Config{MaxHot: 4})
	if _, faults, err := fresh.Recover(&buf); err != nil || len(faults) != 0 {
		t.Fatalf("post-churn recovery: faults=%d err=%v", len(faults), err)
	}
}
