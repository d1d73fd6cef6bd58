// Deployment: the full production lifecycle of the detector — enroll from
// trusted sessions (with the enrollment-quality gate), persist the trained
// model, reload it in a fresh process, run continuous verification
// through the incremental StreamDetector with majority voting and
// inconclusive-hop handling, and finally stand up the observability
// endpoint and scrape one snapshot the way a collector would (see
// OBSERVABILITY.md for the metric catalog this walks through).
//
//	go run ./examples/deployment
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/guard"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "lumiguard")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "detector.json")

	// --- Enrollment (done once, e.g. during app setup) -----------------
	fmt.Println("enrolling from 20 trusted session windows...")
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 3, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		return err
	}
	detector, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		// The trainer refuses environments that cannot carry the
		// challenge (tiny screen, huge RTT): surface that to the user.
		return fmt.Errorf("enrollment failed: %w", err)
	}
	if err := detector.SaveFile(modelPath); err != nil {
		return err
	}
	fmt.Println("model saved; training cost is paid exactly once")

	// --- Verification (every call, in any later process) ---------------
	loaded, err := guard.LoadFile(modelPath)
	if err != nil {
		return err
	}
	stream, err := loaded.NewStreamDetector(guard.DefaultStreamConfig())
	if err != nil {
		return err
	}

	// Stream 45 s of an attacker's call: a verdict every 0.5 s over the
	// trailing 15 s window, printed every 5 s.
	fmt.Println("\nverifying an incoming call (reenactment attacker)...")
	hops := 0
	for w := int64(0); w < 3; w++ {
		session, err := guard.Simulate(guard.SimOptions{Seed: 400 + w, Peer: guard.PeerReenact})
		if err != nil {
			return err
		}
		for i := range session.T {
			result := stream.Push(guard.StreamSample{Transmitted: session.T[i], Received: session.R[i]})
			if result == nil {
				continue
			}
			if hops++; hops%10 != 0 {
				continue
			}
			if result.Inconclusive {
				fmt.Printf("  hop: inconclusive (%s)\n", result.Reason)
				continue
			}
			fmt.Printf("  hop: score %6.2f  challenges %d  attacker=%v\n",
				result.Verdict.Score, result.Challenges, result.Verdict.Attacker)
		}
	}
	stream.Finish()
	conclusive, inconclusive := stream.Windows()
	flagged, err := stream.Flagged()
	if err != nil {
		return err
	}
	fmt.Printf("\n%d conclusive / %d inconclusive hops; running vote: attacker=%v\n",
		conclusive, inconclusive, flagged)
	if !flagged {
		return fmt.Errorf("expected the attacker stream to be flagged")
	}
	fmt.Println("call would be terminated and the user alerted")

	// --- Observability (what a fleet collector scrapes) ----------------
	// Everything above already recorded itself against the default
	// registry; serve it and read one snapshot back over HTTP.
	return scrapeMetrics()
}

// scrapeMetrics starts the metrics endpoint on an ephemeral port, fetches
// the JSON snapshot once, and prints the headline counters — the same
// loop a Prometheus scraper or fleet dashboard runs continuously.
func scrapeMetrics() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	srv := &http.Server{Handler: obs.Handler(obs.Default)}
	go srv.Serve(ln)
	defer srv.Close()

	fmt.Printf("\nmetrics endpoint on http://%s/metrics — scraping one JSON snapshot...\n", ln.Addr())
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics?format=json", ln.Addr()))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return err
	}

	report := func(label, family string) {
		fmt.Printf("  %-34s %d\n", label, snap.CounterSum(family))
	}
	report("verdicts (all outcomes):", "guard_verdicts_total")
	report("windows abstained (by reason):", "guard_windows_inconclusive_total")
	hopLatency, _ := snap.Histogram("guard_stream_hop_seconds")
	fmt.Printf("  %-34s %d observations, %.2f ms total\n",
		"per-hop judge latency:", hopLatency.Count, 1e3*hopLatency.Sum)
	fmt.Printf("  %-34s %d retained / %d recorded\n", "trace spans:", len(snap.Spans), snap.SpansTotal)
	return nil
}
