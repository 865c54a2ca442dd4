package fast

import (
	"math/rand"
	"strings"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/plan"
	"fastsched/internal/sched"
	"fastsched/internal/schedtest"
)

// hierEdgeListSeeds are FuzzHierEdgeList's seed corpus, which
// TestHierMatchesReferencePlacement reuses.
var hierEdgeListSeeds = []struct {
	text     string
	procPick uint8
}{
	{"v 2\nn 1\nn 2\ne 0 1 3\n", 2},
	{"v 1\nn 0\n", 0},
	{"# c\nv 3\nn 1\nn 1\ne 0 1 1\nn 1\ne 0 2 2\ne 1 2 1\n", 1},
	// A heavy edge beside a two-hop detour around it.
	{"v 3\nn 2\nn 1\nn 1\ne 0 2 10\ne 0 1 1\ne 1 2 1\n", 2},
	{"v 6\nn 1\nn 0\nn 3\nn 2\nn 2\nn 0.5\ne 0 2 4\ne 0 3 0\ne 1 3 7\ne 2 4 1\ne 3 4 2\ne 3 5 9\n", 3},
}

// FuzzHierEdgeList drives edge-list text through both stream readers
// into hierarchical FAST, once without an arena and once with one.
// Both schedules must pass ValidateFlat and stay under the work+comm
// envelope, and they must be identical; the schedule must match
// referencePlacement node for node and start every node at the
// earliest time any processor offers it (checkPlacement).
func FuzzHierEdgeList(f *testing.F) {
	for _, seed := range hierEdgeListSeeds {
		f.Add(seed.text, seed.procPick)
	}
	f.Fuzz(func(t *testing.T, text string, procPick uint8) {
		c, err := dag.StreamEdgeList(strings.NewReader(text))
		if err != nil {
			return
		}
		// Beyond 10^9 a float64 ulp outgrows the validator's 1e-6
		// tolerance, so a correct schedule could be misjudged.
		env := c.TotalWork() + c.TotalComm()
		if c.NumNodes() > 2000 || !(env <= 1e9) {
			t.Skip("graph outside the fuzzed range")
		}
		a := dag.NewScaleArena()
		ca, err := dag.StreamEdgeListArena(strings.NewReader(text), a)
		if err != nil {
			t.Fatalf("arena reader rejects what the plain reader accepts: %v", err)
		}
		procs := int(procPick % 5)
		want, err := NewHierarchical(HierOptions{Seed: 1}).ScheduleCSR(c, procs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewHierarchical(HierOptions{Seed: 1, Arena: a}).ScheduleCSR(ca, procs)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*sched.Flat{want, got} {
			if err := sched.ValidateFlat(c, s); err != nil {
				t.Fatalf("procs %d: %v", procs, err)
			}
			if s.Length() > env*(1+1e-9)+1e-9 {
				t.Fatalf("procs %d: makespan %v exceeds work+comm %v", procs, s.Length(), env)
			}
		}
		assertSameSchedule(t, c.NumNodes(), want, got)
		checkPlacement(t, c, procs, want)
	})
}

// FuzzFASTOptions runs FAST across its option space on small random
// graphs: the schedule must pass sched.Validate and come out identical
// on a rerun, a serial run must match the full-replay oracle
// (checkSerialMatchesOracle), PFAST and multi-start must place every
// node as the best of their serial runs (checkBestSerialRun), and
// insertion with the search on must be rejected. Budget stays out: its
// runs depend on the wall clock.
func FuzzFASTOptions(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(4), uint8(0), uint8(0), false, false, int8(0))
	f.Add(int64(2), uint8(40), uint8(0), uint8(3), uint8(1), false, false, int8(16))
	f.Add(int64(3), uint8(30), uint8(3), uint8(2), uint8(2), true, false, int8(3))
	f.Add(int64(4), uint8(25), uint8(2), uint8(4), uint8(0), true, false, int8(0))
	f.Add(int64(5), uint8(59), uint8(8), uint8(0), uint8(2), false, true, int8(-1))
	f.Add(int64(6), uint8(10), uint8(2), uint8(1), uint8(0), true, true, int8(5))
	f.Add(int64(7), uint8(45), uint8(3), uint8(0), uint8(1), false, false, int8(30))
	f.Fuzz(func(t *testing.T, seed int64, size, procs, workers, order uint8, multi, insertion bool, steps int8) {
		g := schedtest.RandomLayered(rand.New(rand.NewSource(seed)), 1+int(size)%60)
		cg, err := plan.Compile(g)
		if err != nil {
			t.Fatal(err)
		}
		p := int(procs % 9)
		opts := Options{
			MaxSteps:    int(steps) % 40,
			Seed:        seed,
			Order:       ListOrder(order % 3),
			Insertion:   insertion,
			Parallelism: 1 + int(workers%6),
			MultiStart:  multi,
		}
		s, err := New(opts).ScheduleCompiled(cg, p)
		if insertion && opts.MaxSteps >= 0 {
			if err == nil {
				t.Fatalf("%+v: insertion with the search on accepted", opts)
			}
			return
		}
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if err := sched.Validate(g, s); err != nil {
			t.Fatalf("procs %d, %+v: %v", p, opts, err)
		}
		again, err := New(opts).ScheduleCompiled(cg, p)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSchedule(t, g.NumNodes(), s, again)
		if opts.Parallelism == 1 && !insertion {
			checkSerialMatchesOracle(t, "fuzz", cg, p, opts)
		}
		if opts.Parallelism > 1 && opts.MaxSteps >= 0 {
			checkBestSerialRun(t, cg, p, opts, s)
		}
	})
}
