// Package sim is the repository's stand-in for the paper's Intel
// Paragon testbed: a discrete-event simulator that *executes* a
// scheduled program instead of merely reading the schedule length off
// the Gantt chart.
//
// Each processor runs its assigned tasks in schedule order; a task
// begins only when the processor is free and every parent's message has
// arrived. Messages depart when the producing task finishes and take
// the edge's communication cost to deliver, with two optional machine
// effects the static schedulers cannot anticipate:
//
//   - single-port contention: each processor serializes its outgoing
//     messages through one network interface (the Paragon NIC model),
//     so simultaneous sends queue behind each other;
//   - runtime perturbation: task durations are scaled by a deterministic
//     pseudo-random factor, modelling the gap between the timing
//     database's estimates and real execution.
//
// The simulated finish time of the last task is the "application
// execution time" reported in the paper's tables.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"fastsched/internal/dag"
	"fastsched/internal/obs"
	"fastsched/internal/pq"
	"fastsched/internal/sched"
)

// Config selects the machine effects applied during simulation.
type Config struct {
	// Contention enables single-port send serialization per processor.
	Contention bool
	// Perturb is the maximum relative deviation of actual task durations
	// from their static weights (e.g. 0.1 scales each task by a factor
	// uniform in [0.9, 1.1]). Zero disables perturbation.
	Perturb float64
	// Seed drives the perturbation; the same seed replays identically.
	Seed int64
	// Topology adds mesh-distance latency to message delivery; the zero
	// value disables it.
	Topology Mesh
	// Faults injects seeded machine faults (processor crashes, message
	// loss/delay with bounded retry, duration jitter). nil or the zero
	// plan injects nothing and reproduces the fault-free run
	// bit-for-bit; a crash that prevents completion surfaces as a
	// *CrashError, which internal/resched turns into a repaired run.
	Faults *FaultPlan
	// Metrics, when non-nil, receives execution telemetry after the run:
	// per-kind event counts, messages delivered, retransmissions,
	// crashes, and tasks completed. The counts are tallied locally and
	// flushed once, so the event loop itself is untouched; a nil sink
	// costs nothing.
	Metrics obs.Sink
}

// Report is the outcome of one simulated execution.
type Report struct {
	// Time is the simulated execution time of the program (makespan).
	Time float64
	// Finish holds each task's simulated finish time.
	Finish []float64
	// BusyTime holds per-processor busy (computing) time, keyed by the
	// schedule's processor IDs.
	BusyTime map[int]float64
	// Messages is the number of inter-processor messages delivered.
	Messages int
	// Retries is the number of message retransmissions forced by the
	// fault plan's transient loss model (zero without faults).
	Retries int
}

// Utilization returns average processor busy time divided by total time.
func (r *Report) Utilization() float64 {
	if r.Time == 0 || len(r.BusyTime) == 0 {
		return 0
	}
	var busy float64
	for _, b := range r.BusyTime {
		busy += b
	}
	return busy / (r.Time * float64(len(r.BusyTime)))
}

// Run executes the schedule s of graph g under the machine model cfg.
// Tasks run in the per-processor order of the schedule; start times in
// the schedule are *not* trusted (they are the scheduler's prediction),
// only the assignment and ordering are.
func Run(g *dag.Graph, s *sched.Schedule, cfg Config) (*Report, error) {
	return run(g, s, cfg, nil)
}

func run(g *dag.Graph, s *sched.Schedule, cfg Config, tr *Tracer) (*Report, error) {
	v := g.NumNodes()
	if s.NumNodes() != v {
		return nil, errors.New("sim: schedule does not match graph")
	}
	for i := 0; i < v; i++ {
		if !s.Assigned(dag.NodeID(i)) {
			return nil, fmt.Errorf("sim: node %d unassigned", i)
		}
	}
	faults := cfg.Faults.Enabled()
	if faults {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}

	duration := actualDurations(g, cfg)

	// Per-processor execution state.
	procs := s.Procs()
	queue := make(map[int][]dag.NodeID, len(procs)) // remaining tasks, schedule order
	nextIdx := make(map[int]int, len(procs))
	procFree := make(map[int]float64, len(procs)) // time the CPU becomes idle
	portFree := make(map[int]float64, len(procs)) // time the send port frees up
	busy := make(map[int]float64, len(procs))
	running := make(map[int]dag.NodeID, len(procs))
	for _, p := range procs {
		queue[p] = s.OnProc(p)
		procFree[p] = 0
		busy[p] = 0
		running[p] = dag.None
	}

	arrived := make([]int, v) // messages received so far, per task
	lastArrival := make([]float64, v)
	startT := make([]float64, v)
	finish := make([]float64, v)
	started := make([]bool, v)
	done := make([]bool, v)
	aborted := make([]bool, v)
	var abortedList []dag.NodeID
	dead := make(map[int]bool)
	var crashed []Crash
	messages, retries := 0, 0

	// Fault machinery: a dedicated RNG for loss/delay draws (drawn in
	// deterministic event-pop order) and the crash events. None of this
	// runs for a nil/zero plan, keeping fault-free runs bit-identical.
	var frng *rand.Rand
	budget := 4*(v+g.NumEdges()) + 16*len(procs)
	if faults {
		frng = rand.New(rand.NewSource(cfg.Faults.Seed))
		budget += 4 * (len(cfg.Faults.Crashes) + 1)
	}

	events := &pq.Heap[event]{Less: eventLess}
	// A task with no remote parents can start as soon as the processor
	// reaches it; seed the simulation by trying to start the head task of
	// every processor.
	for _, p := range procs {
		events.Push(event{time: 0, kind: evTryStart, proc: p})
	}
	if faults {
		for _, c := range cfg.Faults.Crashes {
			events.Push(event{time: c.Time, kind: evCrash, proc: c.Proc})
		}
	}

	completed := 0
	guard := 0
	var evCount [4]int64 // popped events per kind, indexed by eventKind
	if cfg.Metrics != nil {
		// Flushed on every exit path (success, crash, loss, deadlock);
		// the deferred closure reads the locals' final values.
		defer func() {
			m := cfg.Metrics
			m.Counter("sim.events.crash").Add(evCount[evCrash])
			m.Counter("sim.events.arrive").Add(evCount[evArrive])
			m.Counter("sim.events.try_start").Add(evCount[evTryStart])
			m.Counter("sim.events.finish").Add(evCount[evFinish])
			m.Counter("sim.messages").Add(int64(messages))
			m.Counter("sim.retries").Add(int64(retries))
			m.Counter("sim.crashes").Add(int64(len(crashed)))
			m.Counter("sim.tasks_completed").Add(int64(completed))
			m.Counter("sim.tasks_aborted").Add(int64(len(abortedList)))
		}()
	}
	for events.Len() > 0 {
		guard++
		if guard > budget {
			return nil, errors.New("sim: event budget exceeded (schedule deadlocked?)")
		}
		ev := events.Pop()
		evCount[ev.kind]++
		switch ev.kind {
		case evCrash:
			p := ev.proc
			if dead[p] {
				continue
			}
			dead[p] = true
			crashed = append(crashed, Crash{Proc: p, Time: ev.time})
			tr.add(TraceEvent{Time: ev.time, Kind: "crash", Proc: p})
			if n := running[p]; n != dag.None {
				// The task dies mid-instruction: its partial work is lost
				// and only the time up to the crash counts as busy.
				aborted[n] = true
				abortedList = append(abortedList, n)
				busy[p] -= finish[n] - ev.time
				running[p] = dag.None
				tr.add(TraceEvent{Time: ev.time, Kind: "abort", Node: n, Proc: p})
			}

		case evArrive:
			n := ev.node
			arrived[n]++
			if ev.time > lastArrival[n] {
				lastArrival[n] = ev.time
			}
			tr.add(TraceEvent{Time: ev.time, Kind: "arrive", Node: n, Proc: s.Proc(n), From: ev.from})
			events.Push(event{time: ev.time, kind: evTryStart, proc: s.Proc(n)})

		case evTryStart:
			p := ev.proc
			if dead[p] {
				continue
			}
			i := nextIdx[p]
			if i >= len(queue[p]) {
				continue
			}
			n := queue[p][i]
			if started[n] || arrived[n] < remoteParents(g, s, n) {
				continue // still waiting for messages
			}
			if !localParentsDone(g, s, n, done) {
				continue // a co-located parent has not produced its result yet
			}
			start := maxf(ev.time, maxf(procFree[p], lastArrival[n]))
			// Local parents must have finished; they precede n on p by
			// schedule order, so procFree already covers them.
			started[n] = true
			tr.add(TraceEvent{Time: start, Kind: "start", Node: n, Proc: p})
			f := start + duration[n]
			startT[n] = start
			finish[n] = f
			procFree[p] = f
			busy[p] += duration[n]
			running[p] = n
			events.Push(event{time: f, kind: evFinish, node: n, proc: p})

		case evFinish:
			n, p := ev.node, ev.proc
			if aborted[n] {
				continue // the processor died under this task
			}
			done[n] = true
			completed++
			nextIdx[p]++
			running[p] = dag.None
			tr.add(TraceEvent{Time: ev.time, Kind: "finish", Node: n, Proc: p})
			// Dispatch messages to children; local children need no
			// message, remote ones pay the edge cost (plus port queuing
			// under contention).
			sendAt := ev.time
			for _, e := range g.Succ(n) {
				dst := s.Proc(e.To)
				if dst == p {
					continue
				}
				if dead[dst] {
					continue // nobody is listening on a crashed processor
				}
				depart := sendAt
				if cfg.Contention {
					depart = maxf(depart, portFree[p])
				}
				extra := 0.0
				if faults {
					var lost bool
					var r int
					depart, extra, r, lost = transmit(cfg.Faults, frng, depart, e.Weight, tr, n, e.To, p)
					retries += r
					if lost {
						return nil, &MessageLossError{From: n, To: e.To, Attempts: cfg.Faults.maxRetries() + 1}
					}
				}
				if cfg.Contention {
					portFree[p] = depart + e.Weight
				}
				messages++
				tr.add(TraceEvent{Time: depart, Kind: "send", Node: e.To, Proc: p, From: n})
				arrive := depart + e.Weight + cfg.Topology.Delay(p, dst) + extra
				events.Push(event{time: arrive, kind: evArrive, node: e.To, from: n})
			}
			events.Push(event{time: ev.time, kind: evTryStart, proc: p})
		}
	}

	if completed != v {
		if len(crashed) > 0 {
			free := make(map[int]float64, len(procs))
			for _, p := range procs {
				if !dead[p] {
					free[p] = procFree[p]
				}
			}
			return nil, &CrashError{
				Crashes: crashed, Done: done, Start: startT, Finish: finish,
				Aborted: abortedList, Dead: dead, ProcFree: free, BusyTime: busy,
				Messages: messages, Retries: retries, Completed: completed,
			}
		}
		return nil, fmt.Errorf("sim: deadlock — %d of %d tasks completed (schedule order violates precedence)", completed, v)
	}
	var makespan float64
	for _, f := range finish {
		if f > makespan {
			makespan = f
		}
	}
	return &Report{Time: makespan, Finish: finish, BusyTime: busy, Messages: messages, Retries: retries}, nil
}

// transmit plays one remote message through the fault plan's transient
// loss model: each attempt is lost with probability MsgLoss; retry k
// departs after the failed transmission's wire time plus an
// exponentially growing backoff. It returns the departure time of the
// successful attempt, the extra random delivery delay, the number of
// retries used, and whether the retry budget was exhausted (the message
// is then permanently lost).
func transmit(fp *FaultPlan, frng *rand.Rand, depart, wire float64, tr *Tracer, from, to dag.NodeID, proc int) (_, extra float64, retries int, lost bool) {
	if fp.MsgLoss > 0 {
		backoff := fp.retryBackoff()
		delivered := false
		for a := 0; a <= fp.maxRetries(); a++ {
			if a > 0 {
				retries++
				tr.add(TraceEvent{Time: depart, Kind: "retry", Node: to, Proc: proc, From: from})
			}
			if frng.Float64() >= fp.MsgLoss {
				delivered = true
				break
			}
			tr.add(TraceEvent{Time: depart, Kind: "drop", Node: to, Proc: proc, From: from})
			depart += wire + backoff
			backoff *= 2
		}
		if !delivered {
			return depart, 0, retries, true
		}
	}
	if fp.MsgDelay > 0 {
		extra = frng.Float64() * fp.MsgDelay
	}
	return depart, extra, retries, false
}

// actualDurations returns the realized task durations under cfg's
// perturbation model, with the fault plan's jitter (when enabled)
// applied on top from its own seeded stream.
func actualDurations(g *dag.Graph, cfg Config) []float64 {
	v := g.NumNodes()
	d := make([]float64, v)
	if cfg.Perturb <= 0 {
		for i := 0; i < v; i++ {
			d[i] = g.Weight(dag.NodeID(i))
		}
	} else {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < v; i++ {
			factor := 1 + cfg.Perturb*(2*rng.Float64()-1)
			d[i] = g.Weight(dag.NodeID(i)) * factor
		}
	}
	if fp := cfg.Faults; fp.Enabled() && fp.Jitter > 0 {
		jrng := rand.New(rand.NewSource(fp.Seed))
		for i := 0; i < v; i++ {
			d[i] *= 1 + fp.Jitter*(2*jrng.Float64()-1)
		}
	}
	return d
}

// localParentsDone reports whether every co-located parent of n has
// completed; a schedule that orders a child before its local parent on
// the same processor is an invalid program and blocks here (surfacing
// as a deadlock).
func localParentsDone(g *dag.Graph, s *sched.Schedule, n dag.NodeID, done []bool) bool {
	for _, e := range g.Pred(n) {
		if s.Proc(e.From) == s.Proc(n) && !done[e.From] {
			return false
		}
	}
	return true
}

// remoteParents counts n's parents on other processors — the messages n
// must receive before starting.
func remoteParents(g *dag.Graph, s *sched.Schedule, n dag.NodeID) int {
	c := 0
	for _, e := range g.Pred(n) {
		if s.Proc(e.From) != s.Proc(n) {
			c++
		}
	}
	return c
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

type eventKind uint8

const (
	// evCrash sorts first so a crash at time t preempts anything else
	// scheduled at t — a task finishing exactly at the crash instant is
	// aborted, deterministically.
	evCrash    eventKind = iota // a processor fails permanently
	evArrive                    // a message reaches its destination task
	evTryStart                  // a processor re-checks its next task
	evFinish                    // a task completes
)

type event struct {
	time float64
	kind eventKind
	node dag.NodeID
	proc int
	from dag.NodeID // producing task, for arrival events
}

// eventLess orders the event queue by time, then kind, then node and
// proc. It is not a strict order: two message arrivals at one node, at
// one instant, from different parents tie, and pq.Heap's fixed sift
// order decides between them.
func eventLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.proc < b.proc
}
