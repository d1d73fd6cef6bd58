package guard_test

import (
	"bytes"
	"fmt"
	"log"

	"repro/guard"
)

// Train a detector on genuine sessions and classify a fake stream.
func Example() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}

	fake, err := guard.Simulate(guard.SimOptions{Seed: 42, Peer: guard.PeerReenact})
	if err != nil {
		log.Fatal(err)
	}
	verdict, err := detector.DetectTrace(fake)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("attacker:", verdict.Attacker)
	// Output: attacker: true
}

// Combine several detection windows with the paper's majority vote.
func ExampleDetector_CombineVerdicts() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}
	var verdicts []guard.Verdict
	for seed := int64(100); seed < 105; seed++ {
		s, err := guard.Simulate(guard.SimOptions{Seed: seed, Peer: guard.PeerReenact})
		if err != nil {
			log.Fatal(err)
		}
		v, err := detector.DetectTrace(s)
		if err != nil {
			log.Fatal(err)
		}
		verdicts = append(verdicts, v)
	}
	flagged, err := detector.CombineVerdicts(verdicts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flagged:", flagged)
	// Output: flagged: true
}

// Judge a live call hop by hop with the incremental stream engine.
func ExampleDetector_NewStreamDetector() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}
	// A verdict every 0.5 s over the trailing 15 s window.
	stream, err := detector.NewStreamDetector(guard.DefaultStreamConfig())
	if err != nil {
		log.Fatal(err)
	}
	// Three simulated 15 s sessions back to back: a 45 s genuine call.
	for seed := int64(7); seed < 10; seed++ {
		session, err := guard.Simulate(guard.SimOptions{Seed: seed, Peer: guard.PeerGenuine})
		if err != nil {
			log.Fatal(err)
		}
		for i := range session.T {
			stream.Push(guard.StreamSample{Transmitted: session.T[i], Received: session.R[i]})
		}
	}
	stream.Finish()
	flagged, err := stream.Flagged()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("hops judged:", len(stream.Results()))
	fmt.Println("flagged:", flagged)
	// Output:
	// hops judged: 55
	// flagged: false
}

// Persist a trained detector and reload it elsewhere.
func ExampleDetector_Save() {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		log.Fatal(err)
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := detector.Save(&buf); err != nil {
		log.Fatal(err)
	}
	reloaded, err := guard.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("threshold preserved:", reloaded.Threshold() == detector.Threshold())
	// Output: threshold preserved: true
}
