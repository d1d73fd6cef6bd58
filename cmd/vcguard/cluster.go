package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/guard"
	"repro/internal/admission"
	"repro/internal/chaos"
	"repro/internal/chat"
	"repro/internal/cluster"
	"repro/internal/sessionstore"
)

// runCluster is the multi-instance mode. By default it runs the
// deterministic discrete-event simulator — CPU-only capacity sweeps
// whose decision traces reproduce byte for byte from the seed, with
// optional mid-run drains and unplanned crashes detected by the
// heartbeat failure detector. With -live it assembles a small cluster
// of real schedulers instead and demonstrates live migration: segmented
// calls spread over the instances, one instance drains (or, with -fail,
// dies and is failed over) mid-run, and its sessions finish on the
// survivors.
func runCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	instances := fs.Int("instances", 4, "cluster width")
	policyName := fs.String("policy", "affinity", "routing policy: round-robin, least-loaded, or affinity")
	sessions := fs.Int("sessions", 100000, "sessions to offer (simulated arrivals, or live calls with -live)")
	seed := fs.Int64("seed", 1, "simulation seed; same seed, same decision trace, byte for byte")
	rate := fs.Float64("rate", 0, "arrival rate in sessions/sec (0 = 1.1x fleet service capacity)")
	workers := fs.Int("workers", 4, "workers per instance")
	queue := fs.Int("queue", 16, "queue capacity per instance; arrivals beyond it are shed")
	serviceSec := fs.Float64("service-sec", 0.015, "mean verification service time in seconds (sim only)")
	jitter := fs.Float64("jitter", 0.3, "service-time spread as a fraction of the mean, in [0, 1) (sim only)")
	drainAt := fs.Float64("drain-at", 0, "drain -drain-instance at this simulated second (0 = no drain; live mode drains between segment waves instead)")
	drainInstance := fs.Int("drain-instance", 1, "instance to drain (or to kill, with -fail or -crash-at)")
	crashAt := fs.Float64("crash-at", 0, "crash -drain-instance at this simulated second without warning (0 = no crash; sim only); the heartbeat detector must notice and fail it over")
	counterfactual := fs.Bool("counterfactual", false, "record per-instance what-if wait estimates in every route trace record")
	tracePath := fs.String("trace", "", "write the per-decision JSONL trace to this file")
	live := fs.Bool("live", false, "run real schedulers with session-state migration instead of the simulator")
	failInst := fs.Bool("fail", false, "with -live: kill -drain-instance mid-run (unplanned failure with fenced failover) instead of draining it")
	stateDir := fs.String("state-dir", "", "with -live: directory for per-instance crash-safe session state (inst-N.vcr); a restart rehydrates it and -fail recovers from it")
	checkpointEvery := fs.Duration("checkpoint-every", time.Second, "with -live -state-dir: how often each instance persists its session store")
	pace := fs.Duration("pace", 0, "with -live: wall-clock delay per simulated frame, stretching segments over real time (crash testing)")
	linkFaults := fs.Bool("link-faults", false, "with -live -fail: run the failover handoff over seeded faulty in-memory links (drops, tears, bit flips)")
	metricsAddr := metricsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := startMetrics(*metricsAddr); err != nil {
		return err
	}
	pol, err := cluster.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	if *live {
		// Live calls are full verification sessions; scale the flag
		// defaults down from simulator territory unless set explicitly.
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["sessions"] {
			*sessions = 6
		}
		if !set["workers"] {
			*workers = 2
		}
		if !set["queue"] {
			*queue = 8
		}
		if *checkpointEvery <= 0 {
			return fmt.Errorf("-checkpoint-every must be positive")
		}
		if *pace < 0 {
			return fmt.Errorf("-pace must be >= 0")
		}
		return runClusterLive(liveParams{
			pol: pol, instances: *instances, sessions: *sessions,
			workers: *workers, queue: *queue, target: *drainInstance,
			seed: *seed, fail: *failInst, stateDir: *stateDir,
			checkpointEvery: *checkpointEvery, pace: *pace, linkFaults: *linkFaults,
		})
	}
	if *failInst || *stateDir != "" || *pace != 0 || *linkFaults {
		return fmt.Errorf("-fail, -state-dir, -pace and -link-faults need -live")
	}

	if *rate == 0 {
		if *serviceSec <= 0 {
			return fmt.Errorf("-service-sec must be positive")
		}
		*rate = 1.1 * float64(*instances**workers) / *serviceSec
	}
	cfg := cluster.SimConfig{
		Seed:              *seed,
		Instances:         *instances,
		Workers:           *workers,
		QueueCap:          *queue,
		Sessions:          *sessions,
		ArrivalRatePerSec: *rate,
		ServiceMeanSec:    *serviceSec,
		ServiceJitter:     *jitter,
		Policy:            pol,
		Counterfactual:    *counterfactual,
	}
	if *drainAt > 0 {
		cfg.Drains = []cluster.SimDrain{{AtSec: *drainAt, Instance: *drainInstance}}
	}
	if *crashAt > 0 {
		cfg.Crashes = []cluster.SimCrash{{AtSec: *crashAt, Instance: *drainInstance}}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<20)
		cfg.Trace = w
		defer func() {
			_ = w.Flush()
			_ = f.Close()
		}()
	}

	res, err := cluster.RunSim(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("policy %s over %d instances x %d workers, %d sessions at %.0f/s (seed %d)\n",
		res.Policy, *instances, *workers, res.Sessions, *rate, *seed)
	fmt.Printf("completed %d, shed %d, migrated %d, recovered %d; wait mean %.1fms p99 %.1fms; makespan %.1fs\n",
		res.Completed, res.Shed, res.Migrated, res.Recovered,
		res.MeanWaitSec*1000, res.P99WaitSec*1000, res.MakespanSec)
	fmt.Println("  inst    routed  completed     shed  migrated-out  recovered  max-queue")
	for i, st := range res.PerInstance {
		fmt.Printf("  %4d  %8d  %9d  %7d  %12d  %9d  %9d\n",
			i, st.Routed, st.Completed, st.Shed, st.MigratedOut, st.Recovered, st.MaxQueue)
	}
	if *tracePath != "" {
		fmt.Printf("decision trace written to %s\n", *tracePath)
	}
	return nil
}

// Live-mode call shape: each call is liveSegments segments of
// liveSegmentSec seconds; the stream judge needs warmup plus a full
// window (18 s at defaults) before its first verdict, so 4 x 6 s leaves
// every call with a handful of per-hop verdicts.
const (
	liveSegments   = 4
	liveSegmentSec = 6.0
)

// liveParams carries the runCluster flag values the live path needs.
type liveParams struct {
	pol                                 cluster.Policy
	instances, sessions, workers, queue int
	target                              int // instance to drain or fail
	seed                                int64
	fail                                bool // unplanned failure instead of a drain
	stateDir                            string
	checkpointEvery                     time.Duration
	pace                                time.Duration
	linkFaults                          bool
}

// runClusterLive assembles real scheduler instances, runs calls as
// synchronous segment waves, drains — or with -fail, kills — one
// instance after the second wave, and carries every displaced call to
// its verdict on the survivors. With -state-dir each instance keeps a
// crash-safe checkpoint of its parked calls, so a SIGKILL of the whole
// process is recoverable by a rerun, and a failover recovers the dead
// instance's calls from its checkpoint file. (Mid-segment kills under
// load are exercised by the cluster package's race soak; here the goal
// is a readable demonstration.)
func runClusterLive(p liveParams) error {
	pol := p.pol
	instances, sessions, workers, queue := p.instances, p.sessions, p.workers, p.queue
	target, seed := p.target, p.seed
	if instances < 2 {
		return fmt.Errorf("-live needs at least 2 instances")
	}
	if target < 0 || target >= instances {
		return fmt.Errorf("-drain-instance %d outside [0, %d)", target, instances)
	}
	if sessions < 1 {
		return fmt.Errorf("-sessions must be >= 1")
	}
	if sessions > 256 {
		return fmt.Errorf("-live runs full verification sessions; keep -sessions <= 256")
	}
	if p.linkFaults && !p.fail {
		return fmt.Errorf("-link-faults shapes the failover handoff; it needs -fail")
	}
	if p.stateDir != "" {
		if err := os.MkdirAll(p.stateDir, 0o755); err != nil {
			return err
		}
	}

	det, err := trainOnChat(seed)
	if err != nil {
		return err
	}

	stores := make([]*sessionstore.Store[servedState], instances)
	statePaths := make([]string, instances)
	specs := make([]cluster.InstanceSpec, instances)
	recoveredN, corruptN := 0, 0
	for i := range stores {
		st, err := sessionstore.New[servedState](
			sessionstore.Config{MaxHot: workers * 2}, sessionstore.JSONCodec[servedState]{})
		if err != nil {
			return err
		}
		stores[i] = st
		if p.stateDir != "" {
			statePaths[i] = filepath.Join(p.stateDir, fmt.Sprintf("inst-%d.vcr", i))
			n, faults, rerr := st.RecoverFile(statePaths[i])
			if rerr != nil {
				return rerr
			}
			for _, f := range faults {
				fmt.Fprintf(os.Stderr, "vcguard: state: corrupt record: %v\n", f)
			}
			recoveredN += n
			corruptN += len(faults)
		}
		// Each instance runs serve -state-dir's segmented judge against a
		// store of its own, so a drain has something to migrate.
		specs[i] = cluster.InstanceSpec{
			Scheduler: segmentJudged(chat.SchedulerConfig{
				Workers:        workers,
				SessionTimeout: 60 * time.Second,
				Admission:      &chat.AdmissionConfig{QueueCapacity: queue},
			}, det, st, liveSegments),
			States:         sessionstore.Bind(st),
			CheckpointPath: statePaths[i],
		}
	}
	if p.stateDir != "" {
		fmt.Printf("state: recovered %d sessions, %d corrupt records, from %s\n", recoveredN, corruptN, p.stateDir)
	}

	cfg := cluster.Config{Policy: pol, Specs: specs}
	if p.fail {
		cfg.Recovery = cluster.RecoveryConfig{
			Attempts: 24, AttemptTimeout: 500 * time.Millisecond,
			Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		}
	}
	if p.linkFaults {
		// Failover handoffs cross seeded faulty in-memory links: drops,
		// torn writes and bit flips that the CRC-framed wire protocol
		// must absorb with retries.
		var dialSeq atomic.Int64
		cfg.LinkDialer = func(to int) (net.Conn, net.Conn, error) {
			push, serve := net.Pipe()
			fc, err := chaos.NewFaultConn(push, chaos.ConnConfig{
				Seed: seed*1000 + dialSeq.Add(1), DropRate: 0.2, TearRate: 0.1, BitFlipRate: 0.1,
			})
			if err != nil {
				_ = push.Close()
				_ = serve.Close()
				return nil, nil, err
			}
			return fc, serve, nil
		}
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer cl.Close()

	// Periodic checkpoints: atomic saves mean a SIGKILL at any instant
	// leaves every instance's last complete generation on disk.
	stopCk := make(chan struct{})
	var ckWG sync.WaitGroup
	if p.stateDir != "" {
		ckWG.Add(1)
		go func() {
			defer ckWG.Done()
			t := time.NewTicker(p.checkpointEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					for i, st := range stores {
						if err := st.SaveFile(statePaths[i]); err != nil {
							fmt.Fprintf(os.Stderr, "vcguard: state checkpoint: %v\n", err)
						}
					}
				case <-stopCk:
					return
				}
			}
		}()
	}

	// syncSeg reads a call's true progress back out of the stores (peek:
	// take, then put back). After a recovery or a failover the stores are
	// ground truth — a fenced instance may have advanced a call past what
	// this driver saw.
	syncSeg := func(id string, cur int) int {
		for _, st := range stores {
			state, prio, ok, terr := st.TakeEntry(id)
			if terr != nil || !ok {
				continue
			}
			_ = st.Put(id, prio, state)
			if state.Done > cur {
				cur = state.Done
			}
		}
		return cur
	}

	type call struct {
		id      string
		seg     int
		ok      bool
		resumed bool
		err     error
	}
	calls := make([]*call, sessions)
	for i := range calls {
		calls[i] = &call{id: fmt.Sprintf("call-%d", i)}
		if p.stateDir != "" {
			// A rerun picks each recovered call up at its parked segment.
			calls[i].seg = syncSeg(calls[i].id, 0)
		}
	}

	inconclusiveLeft := 0
	fmt.Printf("\n%d calls x %d segments over %d instances (policy %s)\n",
		sessions, liveSegments, instances, pol.Name())
	for wave := 0; wave < liveSegments; wave++ {
		if wave == 2 && p.fail {
			if p.stateDir != "" {
				// Pin every checkpoint to the wave boundary: the periodic
				// saver is asynchronous, and the failover recovers from the
				// dead instance's last durable generation — making that
				// generation current keeps the demo's recovery set exactly
				// the parked calls.
				for i, st := range stores {
					if err := st.SaveFile(statePaths[i]); err != nil {
						return err
					}
				}
			}
			fmt.Printf("\nfailing instance %d (unplanned)...\n", target)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			rep, ferr := cl.FailInstance(ctx, target)
			cancel()
			if ferr != nil {
				return ferr
			}
			inconclusiveLeft = len(rep.Inconclusive)
			fmt.Printf("  fencing epoch %d; %d in-flight calls killed\n", rep.Epoch, len(rep.Killed))
			fmt.Printf("  recovered %d parked calls, %d inconclusive\n", len(rep.Recovered), len(rep.Inconclusive))
			for _, m := range rep.Recovered {
				fmt.Printf("    %s: instance %d -> %d\n", m.ID, m.From, m.To)
			}
			for _, ic := range rep.Inconclusive {
				fmt.Printf("    inconclusive %s (%s): %v\n", ic.ID, ic.Reason, ic.Err)
			}
			// Post-failover re-sync: the survivor stores are ground truth
			// for how far each call actually got.
			for _, c := range calls {
				if !c.ok && c.err == nil {
					c.seg = syncSeg(c.id, c.seg)
				}
			}
		} else if wave == 2 {
			fmt.Printf("\ndraining instance %d...\n", target)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			rep, derr := cl.DrainInstance(ctx, target)
			cancel()
			if derr != nil {
				return derr
			}
			fmt.Printf("  migrated %d parked calls, %d failures, %d unfinished\n",
				len(rep.Moved), len(rep.Failed), len(rep.Unfinished))
			for _, m := range rep.Moved {
				fmt.Printf("    %s: instance %d -> %d\n", m.ID, m.From, m.To)
			}
			for _, ferr := range rep.Failed {
				fmt.Printf("    failed: %v\n", ferr)
			}
		}
		fmt.Printf("\nsegment wave %d:\n", wave+1)
		type pend struct {
			c    *call
			inst int
			ch   <-chan chat.SessionResult
		}
		var pending []pend
		for i, c := range calls {
			if c.ok || c.err != nil {
				continue
			}
			// The seed depends on (call, segment) only, so a call replays
			// identical frames wherever it lands — across instances,
			// failovers, and process restarts alike.
			req, rerr := serveRequest(c.id, seed+int64(i*100+c.seg), liveSegmentSec)
			if rerr == nil && p.pace > 0 {
				req.Peer, rerr = chaos.NewSlowSource(req.Peer, p.pace)
			}
			if rerr != nil {
				return rerr
			}
			var ch <-chan chat.SessionResult
			var inst int
			for attempt := 0; ; attempt++ {
				ch, inst, rerr = cl.Submit(context.Background(), req)
				if errors.Is(rerr, admission.ErrShed) && attempt < 50 {
					time.Sleep(50 * time.Millisecond)
					continue
				}
				break
			}
			if rerr != nil {
				c.err = rerr
				continue
			}
			pending = append(pending, pend{c: c, inst: inst, ch: ch})
		}
		for _, p := range pending {
			res, ok := <-p.ch
			if !ok {
				p.c.err = fmt.Errorf("no result delivered")
				continue
			}
			if res.Err != nil {
				p.c.err = res.Err
				continue
			}
			p.c.resumed = p.c.resumed || res.Resumed
			switch v := res.Verdict.(type) {
			case servedProgress:
				p.c.seg = v.Done
				fmt.Printf("  %s: segment %d/%d on instance %d\n", p.c.id, v.Done, v.Total, p.inst)
			case guard.StreamReport:
				p.c.ok = true
				mark := ""
				if p.c.resumed {
					mark = "[resumed] "
				}
				fmt.Printf("  %s: %sverdict on instance %d: %d hops (%d conclusive, %d attacker votes) flagged=%v\n",
					p.c.id, mark, p.inst, len(v.Results), v.Conclusive, v.AttackerVotes, v.Flagged)
			default:
				p.c.err = fmt.Errorf("unexpected verdict %T", res.Verdict)
			}
		}
	}

	if p.stateDir != "" {
		close(stopCk)
		ckWG.Wait()
		parked := 0
		for i, st := range stores {
			if p.fail && i == target {
				continue // the zombie store's entries were consumed via its checkpoint
			}
			if err := st.SaveFile(statePaths[i]); err != nil {
				return err
			}
			hot, warm := st.Len()
			parked += hot + warm
		}
		if p.fail && inconclusiveLeft == 0 {
			// The recovery consumed the dead instance's checkpoint; leaving
			// it would make a rerun resurrect finished calls. Keep it only
			// if inconclusive sessions still need it.
			_ = os.Remove(statePaths[target])
		}
		fmt.Printf("\nstate: parked %d calls (saved under %s)\n", parked, p.stateDir)
	}

	done := 0
	for _, c := range calls {
		if c.ok {
			done++
		} else {
			fmt.Fprintf(os.Stderr, "vcguard: %s: %v\n", c.id, c.err)
		}
	}
	verb := "drained"
	if p.fail {
		verb = "failed over"
	}
	fmt.Printf("\ncompleted %d/%d calls across %d instances (1 %s)\n", done, sessions, instances, verb)
	if done < sessions {
		return fmt.Errorf("%d calls failed", sessions-done)
	}
	return nil
}
