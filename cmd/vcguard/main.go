// Command vcguard runs the defense end to end.
//
// Demo mode (no files needed): train on simulated genuine sessions, then
// run multi-round detections against a genuine peer and a reenactment
// attacker:
//
//	vcguard demo [-rounds 5] [-seed 1]
//
// Trace mode: train from one trace file and classify another:
//
//	vcguard detect -train legit.json -test suspect.json
//
// Persisted-model mode: train once, save the detector, reuse it:
//
//	vcguard train -traces legit.json -out detector.json
//	vcguard detect -model detector.json -test suspect.json
//
// Serve mode: an overload-robust verification service over simulated
// call arrivals. The admission queue bounds intake (over-capacity
// arrivals shed with typed errors), and SIGTERM/SIGINT triggers a
// graceful drain bounded by -drain-budget:
//
//	vcguard serve -sessions 50 -workers 2 -queue 8
//
// With -state-dir, serve becomes crash-safe and restartable: calls run
// as resumable segments whose stream-detector state parks in a tiered
// session store, checkpointed atomically to the directory on a cadence
// and once more after the drain, so sessions the drain cut off are
// parked too. A restart — or a crash, SIGKILL included — rehydrates the
// parked calls and carries them to verdicts; damaged state surfaces as
// typed corrupt-record reports, never a panic:
//
//	vcguard serve -sessions 50 -state-dir /var/lib/vcguard
//
// Cluster mode: several scheduler instances behind a routing policy
// (round-robin, least-loaded, or rendezvous-hash affinity). By default
// it runs a seeded discrete-event simulator — capacity sweeps whose
// per-decision JSONL traces (-trace) reproduce byte for byte from the
// seed; -counterfactual adds what-if wait estimates for every other
// instance to each routing record. With -live it assembles real
// schedulers instead and demonstrates draining an instance mid-run,
// migrating its parked session state to the survivors. See CLUSTER.md:
//
//	vcguard cluster -instances 4 -policy affinity -sessions 100000 -seed 7 -trace trace.jsonl
//	vcguard cluster -instances 3 -policy affinity -live
//
// Every subcommand accepts -metrics ADDR, which serves the observability
// endpoint for the lifetime of the run: /metrics (Prometheus-style text;
// ?format=json for the JSON snapshot with spans), /spans, /debug/vars,
// and the standard /debug/pprof profiles. See OBSERVABILITY.md for the
// metric catalog:
//
//	vcguard demo -rounds 50 -metrics 127.0.0.1:9090 &
//	curl -s 127.0.0.1:9090/metrics | grep guard_verdicts_total
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"

	"repro/guard"
	"repro/internal/obs"
	"repro/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "demo":
		err = runDemo(os.Args[2:])
	case "detect":
		err = runDetect(os.Args[2:])
	case "train":
		err = runTrain(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "cluster":
		err = runCluster(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vcguard:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vcguard demo [-rounds N] [-seed N] [-metrics ADDR]")
	fmt.Fprintln(os.Stderr, "       vcguard train -traces FILE -out FILE [-metrics ADDR]")
	fmt.Fprintln(os.Stderr, "       vcguard detect (-train FILE | -model FILE) -test FILE [-metrics ADDR]")
	fmt.Fprintln(os.Stderr, "       vcguard serve [-sessions N] [-workers N] [-queue N] [-rate R] [-drain-budget D] [-judge stream|batch] [-session-sec N] [-state-dir DIR] [-segment-sec N] [-checkpoint-every D] [-pace D] [-seed N] [-metrics ADDR]")
	fmt.Fprintln(os.Stderr, "       vcguard cluster [-instances N] [-policy P] [-sessions N] [-seed N] [-rate R] [-drain-at S] [-drain-instance N] [-counterfactual] [-trace FILE] [-live] [-metrics ADDR]")
}

// metricsFlag registers -metrics on a subcommand's flag set.
func metricsFlag(fs *flag.FlagSet) *string {
	return fs.String("metrics", "", "serve /metrics, /spans, /debug/vars and /debug/pprof on this address for the run")
}

// startMetrics begins serving the observability endpoint, or does nothing
// when addr is empty. The listener dies with the process; long-lived
// embedders mount obs.Handler on their own server instead.
func startMetrics(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics (JSON: ?format=json; profiles: /debug/pprof/)\n", ln.Addr())
	go func() {
		srv := &http.Server{Handler: obs.Handler(obs.Default)}
		_ = srv.Serve(ln)
	}()
	return nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	tracesPath := fs.String("traces", "", "trace file with genuine training sessions")
	out := fs.String("out", "", "path for the saved detector")
	metricsAddr := metricsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracesPath == "" || *out == "" {
		return fmt.Errorf("both -traces and -out are required")
	}
	if err := startMetrics(*metricsAddr); err != nil {
		return err
	}
	sessions, err := trace.LoadFile(*tracesPath)
	if err != nil {
		return err
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), sessions)
	if err != nil {
		return err
	}
	if err := det.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("trained on %d sessions, detector saved to %s\n", len(sessions), *out)
	return nil
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	rounds := fs.Int("rounds", 5, "detection attempts per peer")
	seed := fs.Int64("seed", 1, "simulation seed")
	metricsAddr := metricsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startMetrics(*metricsAddr); err != nil {
		return err
	}

	fmt.Println("training on 20 simulated genuine sessions...")
	train, err := guard.SimulateMany(guard.SimOptions{Seed: *seed, Peer: guard.PeerGenuine}, 20)
	if err != nil {
		return err
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), train)
	if err != nil {
		return err
	}

	verify := func(name string, kind guard.PeerKind) error {
		fmt.Printf("\nverifying %s peer over %d rounds:\n", name, *rounds)
		var verdicts []guard.Verdict
		for i := 0; i < *rounds; i++ {
			s, err := guard.Simulate(guard.SimOptions{Seed: *seed + 1000 + int64(i)*31, Peer: kind})
			if err != nil {
				return err
			}
			v, err := det.DetectTrace(s)
			if err != nil {
				return err
			}
			verdicts = append(verdicts, v)
			fmt.Printf("  round %d: score %5.2f  attacker=%v\n", i+1, v.Score, v.Attacker)
		}
		flagged, err := det.CombineVerdicts(verdicts)
		if err != nil {
			return err
		}
		fmt.Printf("  => majority vote: attacker=%v\n", flagged)
		return nil
	}
	if err := verify("genuine", guard.PeerGenuine); err != nil {
		return err
	}
	return verify("reenactment-attacker", guard.PeerReenact)
}

func runDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	trainPath := fs.String("train", "", "trace file with genuine training sessions")
	modelPath := fs.String("model", "", "saved detector (alternative to -train)")
	testPath := fs.String("test", "", "trace file with sessions to classify")
	metricsAddr := metricsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *testPath == "" || (*trainPath == "") == (*modelPath == "") {
		return fmt.Errorf("-test plus exactly one of -train or -model is required")
	}
	if err := startMetrics(*metricsAddr); err != nil {
		return err
	}
	var det *guard.Detector
	var err error
	if *modelPath != "" {
		det, err = guard.LoadFile(*modelPath)
	} else {
		var trainSessions []trace.Session
		trainSessions, err = trace.LoadFile(*trainPath)
		if err == nil {
			det, err = guard.TrainFromTraces(guard.DefaultOptions(), trainSessions)
		}
	}
	if err != nil {
		return err
	}
	testSessions, err := trace.LoadFile(*testPath)
	if err != nil {
		return err
	}
	correct, total := 0, 0
	var verdicts []guard.Verdict
	for i, s := range testSessions {
		v, err := det.DetectTrace(s)
		if err != nil {
			return fmt.Errorf("session %d: %w", i, err)
		}
		verdicts = append(verdicts, v)
		truth := s.Ground != trace.LabelLegit
		total++
		if v.Attacker == truth {
			correct++
		}
		fmt.Printf("session %2d: score %6.2f attacker=%-5v ground=%s\n", i, v.Score, v.Attacker, s.Ground)
	}
	flagged, err := det.CombineVerdicts(verdicts)
	if err != nil {
		return err
	}
	fmt.Printf("\nper-session accuracy: %d/%d\nmajority vote across file: attacker=%v\n", correct, total, flagged)
	return nil
}
