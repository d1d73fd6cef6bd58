package guard

import (
	"encoding/json"
	"errors"
	"testing"
)

// resumeThrough runs samples through sd, parking and resuming it at every
// index in cuts: at each cut the detector is exported, serialized through
// JSON (the session-store wire format), dropped, and a fresh detector is
// resumed from the decoded state before the stream continues.
func resumeThrough(t *testing.T, det *Detector, cfg StreamConfig, samples []StreamSample, cuts []int) []WindowResult {
	t.Helper()
	sd, err := det.NewStreamDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	var out []WindowResult
	for i, s := range samples {
		for next < len(cuts) && cuts[next] == i {
			blob, err := json.Marshal(sd.Export())
			if err != nil {
				t.Fatal(err)
			}
			var st StreamState
			if err := json.Unmarshal(blob, &st); err != nil {
				t.Fatal(err)
			}
			sd, err = det.ResumeStreamDetector(st)
			if err != nil {
				t.Fatalf("resume at sample %d: %v", i, err)
			}
			next++
		}
		if r := sd.Push(s); r != nil {
			out = append(out, *r)
		}
	}
	return append(out, sd.Finish()...)
}

// TestStreamStateResumeBitIdentical is the crash-safety contract of the
// session store: evict → serialize → rehydrate → continue must produce
// per-hop verdicts bit-identical (Float64bits) to an uninterrupted run —
// across warmup, mid-window, mid-hop, and chain-latency boundaries, on
// clean and degraded streams.
func TestStreamStateResumeBitIdentical(t *testing.T) {
	det := trainDetector(t)

	genuine := cleanStream(t, 47000, PeerGenuine, 2)
	streams := map[string][]StreamSample{
		"genuine":  genuine,
		"attacker": cleanStream(t, 48000, PeerReenact, 2),
		"degraded": degradeStream(genuine, 11),
	}
	configs := map[string]StreamConfig{
		"default":   DefaultStreamConfig(),
		"odd-sizes": {WindowSamples: 97, HopSamples: 13, WarmupSamples: 11, MinChallenges: 1, MaxGapRatio: 0.3, MaxStaleRatio: 0.4},
	}
	cutSets := map[string][]int{
		"in-warmup":   {0, 5},
		"mid-stream":  {200},
		"every-phase": {1, 40, 151, 152, 300, 449},
		"back-toback": {250, 250, 250},
	}
	for sname, samples := range streams {
		for cname, cfg := range configs {
			sd, err := det.NewStreamDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []WindowResult
			for _, s := range samples {
				if r := sd.Push(s); r != nil {
					want = append(want, *r)
				}
			}
			want = append(want, sd.Finish()...)
			if len(want) == 0 {
				t.Fatalf("%s/%s: reference run judged no hops", sname, cname)
			}
			for kname, cuts := range cutSets {
				got := resumeThrough(t, det, cfg, samples, cuts)
				if len(got) != len(want) {
					t.Fatalf("%s/%s/%s: %d hops after resume, %d uninterrupted", sname, cname, kname, len(got), len(want))
				}
				for i := range got {
					if !sameWindowResult(got[i], want[i]) {
						t.Fatalf("%s/%s/%s hop %d diverged:\nresumed       %+v\nuninterrupted %+v",
							sname, cname, kname, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamStateRejectsDamage walks the validation surface: every
// mutation of a valid parked state must be rejected with a descriptive
// error, and a version skew with *VersionError — never a half-restored
// detector.
func TestStreamStateRejectsDamage(t *testing.T) {
	det := trainDetector(t)
	sd, err := det.NewStreamDetector(DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range cleanStream(t, 50000, PeerGenuine, 1) {
		sd.Push(s)
	}
	good := sd.Export()
	if _, err := det.ResumeStreamDetector(good); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}

	mutations := map[string]func(*StreamState){
		"version-skew":    func(st *StreamState) { st.Version = 99 },
		"bad-config":      func(st *StreamState) { st.Config.WindowSamples = 1 },
		"ring-mismatch":   func(st *StreamState) { st.SmTx = st.SmTx[:10] },
		"flag-mismatch":   func(st *StreamState) { st.Flags = st.Flags[:3] },
		"negative-raw":    func(st *StreamState) { st.Raw = -1 },
		"over-warm":       func(st *StreamState) { st.Warm = st.Config.WarmupSamples + 1 },
		"emitted-gt-raw":  func(st *StreamState) { st.Emitted = st.Raw + 1 },
		"off-grid-cursor": func(st *StreamState) { st.NextEnd++ },
		"vote-mismatch":   func(st *StreamState) { st.Conclusive++ },
		"excess-votes":    func(st *StreamState) { st.AttackVotes = st.Conclusive + 1 },
		"chain-mismatch":  func(st *StreamState) { st.TxChain.FIR.Buf = st.TxChain.FIR.Buf[:1] },
	}
	for name, mutate := range mutations {
		st := good
		// The mutations only reslice or overwrite scalar fields, so a
		// shallow copy isolates them from each other.
		mutate(&st)
		_, err := det.ResumeStreamDetector(st)
		if err == nil {
			t.Errorf("%s: damaged state accepted", name)
			continue
		}
		if name == "version-skew" {
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Errorf("%s: want *VersionError, got %T: %v", name, err, err)
			}
		}
	}
}
