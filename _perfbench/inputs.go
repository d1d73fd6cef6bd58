package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/guard"
	"repro/internal/chaos"
	"repro/internal/chat"
	"repro/internal/facemodel"
	"repro/trace"
)

// Input synthesis is harness work: it runs before set-up is timed, and
// the program only ever sees the generated samples or frames.

// trainingClips is the number of genuine 15 s clips the detector trains
// on (the paper uses 20 windows).
const trainingClips = 20

// degradedFaults is the live_degraded capture-fault mix: landmark-loss
// spans, NaN bursts and stale frames heavy enough that most hops exit at
// the landmark, gap or stale gate before peak finding.
var degradedFaults = chaos.Config{
	LandmarkLossRate: 0.06,
	LandmarkLossLen:  5,
	NaNBurstRate:     0.04,
	NaNBurstLen:      3,
	StaleRate:        0.3,
}

// segFrame is the verifier and peer frame side in pixels on the
// segmented workload: the smallest frame the face model renders, at
// which luminance.FaceSignal still locates the face. Rendering stands in
// for the camera and is not the service under test.
const segFrame = 16

// sampleHz is the capture rate of every stream (chat.DefaultSessionConfig).
const sampleHz = 10

// parallel runs f(0) .. f(n-1) on GOMAXPROCS goroutines and returns
// the error of the lowest failing index.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simulateAll runs guard.Simulate for every option and returns the
// sessions in option order.
func simulateAll(opts []guard.SimOptions) ([]trace.Session, error) {
	out := make([]trace.Session, len(opts))
	err := parallel(len(opts), func(i int) error {
		var err error
		if out[i], err = guard.Simulate(opts[i]); err != nil {
			return fmt.Errorf("simulate clip %d: %w", i, err)
		}
		return nil
	})
	return out, err
}

// trainingSet synthesizes the genuine clips the detector trains on.
func trainingSet(seed int64) ([]trace.Session, error) {
	opts := make([]guard.SimOptions, trainingClips)
	for i := range opts {
		opts[i] = guard.SimOptions{Seed: seed*1_000_003 + int64(i)*7919, Peer: guard.PeerGenuine}
	}
	return simulateAll(opts)
}

// poolKind is the peer behind pool clip i: three in four clips are
// genuine, the rest rotate through the three attackers.
func poolKind(i int) guard.PeerKind {
	if i%4 != 3 {
		return guard.PeerGenuine
	}
	return []guard.PeerKind{guard.PeerReenact, guard.PeerForger, guard.PeerReplay}[(i/4)%3]
}

// livePool synthesizes the clips live sessions read from. Degraded
// pools pass every clip through the chaos injector.
func livePool(seed int64, clips int, clipSec float64, degraded bool) ([][]guard.StreamSample, error) {
	opts := make([]guard.SimOptions, clips)
	for i := range opts {
		opts[i] = guard.SimOptions{
			Seed:          seed*1_000_033 + 500 + int64(i)*104729,
			DurationSec:   clipSec,
			Peer:          poolKind(i),
			ForgeDelaySec: 0.3,
		}
	}
	sims, err := simulateAll(opts)
	if err != nil {
		return nil, err
	}
	pool := make([][]guard.StreamSample, clips)
	for i, s := range sims {
		if degraded {
			cfg := degradedFaults
			cfg.Seed = seed*31 + int64(i)
			in, err := chaos.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("chaos: %w", err)
			}
			pool[i] = in.PerturbWindow(s.T, s.R)
			continue
		}
		pool[i] = make([]guard.StreamSample, len(s.T))
		for j := range s.T {
			pool[i][j] = guard.StreamSample{Transmitted: s.T[j], Received: s.R[j]}
		}
	}
	return pool, nil
}

// segmentRequest builds the capture side of one call segment: a fresh
// verifier and genuine peer at segFrame pixels, seeded, as the serve
// path builds one per segment.
func segmentRequest(id string, seed int64, sec float64) (chat.SessionRequest, error) {
	rng := rand.New(rand.NewSource(seed))
	vc := chat.DefaultVerifierConfig(facemodel.RandomPerson("verifier", rng))
	vc.Face.Width, vc.Face.Height = segFrame, segFrame
	v, err := chat.NewVerifier(vc, rng)
	if err != nil {
		return chat.SessionRequest{}, err
	}
	pc := chat.DefaultGenuineConfig(facemodel.RandomPerson("peer", rng))
	pc.Face.Width, pc.Face.Height = segFrame, segFrame
	peer, err := chat.NewGenuineSource(pc, rng)
	if err != nil {
		return chat.SessionRequest{}, err
	}
	cfg := chat.DefaultSessionConfig()
	cfg.DurationSec = sec
	return chat.SessionRequest{ID: id, Config: cfg, Verifier: v, Peer: peer}, nil
}
