package guard

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzEditSize is one stream edit in FuzzStreamPush's input: a position
// (uint16, little-endian, taken modulo the stream length), an op byte
// (low 3 bits the kind, high 5 bits the run length minus one) and a
// float64 value (IEEE bits, little-endian).
const fuzzEditSize = 11

// fuzzEdit encodes one edit for the seed corpus.
func fuzzEdit(pos uint16, kind, run byte, v float64) []byte {
	b := make([]byte, fuzzEditSize)
	binary.LittleEndian.PutUint16(b, pos)
	b[2] = kind | run<<3
	binary.LittleEndian.PutUint64(b[3:], math.Float64bits(v))
	return b
}

// applyFuzzEdits decodes data into edits over a copy of base.
func applyFuzzEdits(base []StreamSample, data []byte) []StreamSample {
	out := append([]StreamSample(nil), base...)
	for ; len(data) >= fuzzEditSize; data = data[fuzzEditSize:] {
		pos := int(binary.LittleEndian.Uint16(data)) % len(out)
		kind, run := data[2]&7, int(data[2]>>3)+1
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[3:]))
		for i := pos; i < min(pos+run, len(out)); i++ {
			s := &out[i]
			switch kind {
			case 0:
				s.Transmitted = v
			case 1:
				s.Received = v
			case 2:
				s.Transmitted, s.Received = v, v
			case 3:
				s.LandmarkLost = !s.LandmarkLost
			case 4:
				s.Stale = !s.Stale
			case 5:
				s.Received, s.LandmarkLost = v, true
			case 6:
				*s = StreamSample{Transmitted: v, Received: -v}
			default:
				s.Transmitted, s.Stale = v, true
			}
		}
	}
	return out
}

// FuzzStreamPush feeds the live hot path hostile streams: a genuine call
// (so hops reach the judge) edited by the fuzzer with NaN, ±Inf, huge
// and denormal values and landmark-loss and stale runs. Two detectors
// with different windows run interleaved on one Detector. Every hop must
// end in a verdict with a non-NaN score or in a typed reason, with
// quality in [0, 1], and never panic; and each detector's hops must
// equal the same detector run alone, bit for bit, so the pooled hop
// scratch never carries one session's data into another's verdict.
func FuzzStreamPush(f *testing.F) {
	f.Add([]byte{})
	f.Add(fuzzEdit(100, 0, 0, math.NaN()))
	f.Add(fuzzEdit(90, 1, 31, math.Inf(1)))
	f.Add(fuzzEdit(120, 0, 20, math.Inf(-1)))
	f.Add(fuzzEdit(80, 2, 31, 1e308))
	f.Add(fuzzEdit(60, 2, 31, -1e308))
	f.Add(fuzzEdit(70, 6, 31, 5e-324))
	f.Add(fuzzEdit(150, 1, 31, math.SmallestNonzeroFloat64))
	f.Add(append(fuzzEdit(50, 3, 31, 0), fuzzEdit(82, 3, 15, 0)...))
	f.Add(append(fuzzEdit(40, 4, 31, 0), fuzzEdit(72, 4, 31, 0)...))
	f.Add(append(fuzzEdit(130, 5, 31, math.NaN()), fuzzEdit(200, 7, 31, 3e200)...))
	f.Add(append(fuzzEdit(0, 2, 31, 0), fuzzEdit(32, 2, 31, 0)...))

	sim, err := Simulate(SimOptions{Seed: 49000, Peer: PeerGenuine, DurationSec: 30})
	if err != nil {
		f.Fatal(err)
	}
	base := make([]StreamSample, len(sim.T))
	for i := range base {
		base[i] = StreamSample{Transmitted: sim.T[i], Received: sim.R[i]}
	}
	cfgs := [2]StreamConfig{
		{WindowSamples: 40, HopSamples: 3, WarmupSamples: 2, MinChallenges: 1},
		{WindowSamples: 64, HopSamples: 5, MinChallenges: 1, DTWBandRadius: -1},
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		det := trainDetector(t)
		samples := applyFuzzEdits(base, data)
		var sds [2]*StreamDetector
		var interleaved, alone [2][]WindowResult
		for i, cfg := range cfgs {
			sd, err := det.NewStreamDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sds[i] = sd
		}
		for _, s := range samples {
			for i, sd := range sds {
				if r := sd.Push(s); r != nil {
					interleaved[i] = append(interleaved[i], *r)
				}
			}
		}
		for i, cfg := range cfgs {
			interleaved[i] = append(interleaved[i], sds[i].Finish()...)
			sd, err := det.NewStreamDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range samples {
				if r := sd.Push(s); r != nil {
					alone[i] = append(alone[i], *r)
				}
			}
			alone[i] = append(alone[i], sd.Finish()...)

			if len(interleaved[i]) == 0 {
				t.Fatalf("detector %d judged no hops over %d samples", i, len(samples))
			}
			if len(interleaved[i]) != len(alone[i]) {
				t.Fatalf("detector %d: %d hops interleaved, %d alone", i, len(interleaved[i]), len(alone[i]))
			}
			for h, r := range interleaved[i] {
				if !(r.Quality >= 0 && r.Quality <= 1) {
					t.Fatalf("detector %d hop %d: quality %v outside [0, 1]", i, h, r.Quality)
				}
				switch {
				case !r.Inconclusive && (r.Code != ReasonNone || math.IsNaN(r.Verdict.Score)):
					t.Fatalf("detector %d hop %d: conclusive with code %v, score %v", i, h, r.Code, r.Verdict.Score)
				case r.Inconclusive && r.Code == ReasonNone:
					t.Fatalf("detector %d hop %d: inconclusive without a reason code", i, h)
				}
				if !sameWindowResult(r, alone[i][h]) {
					t.Fatalf("detector %d hop %d:\ninterleaved %+v\nalone       %+v", i, h, r, alone[i][h])
				}
			}
		}
	})
}
