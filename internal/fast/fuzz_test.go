package fast

import (
	"strings"
	"testing"

	"fastsched/internal/dag"
	"fastsched/internal/sched"
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
