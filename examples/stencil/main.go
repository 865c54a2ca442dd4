// Stencil: schedule an iterative Jacobi stencil, map a clustering (DSC)
// onto a bounded machine (an extension beyond the paper), and compare
// how much FAST's phase-2 search gains on it: none, the paper's greedy
// walk, and PFAST's four walks.
//
//	go run ./examples/stencil [-n 8] [-iters 6] [-procs 8]
package main

import (
	"flag"
	"fmt"
	"log"

	"fastsched"
)

func main() {
	n := flag.Int("n", 8, "grid dimension")
	iters := flag.Int("iters", 6, "Jacobi sweeps")
	procs := flag.Int("procs", 32, "physical processors")
	flag.Parse()

	g, err := fastsched.Stencil(*n, *iters, fastsched.ParagonLike())
	if err != nil {
		log.Fatal(err)
	}
	lb, err := fastsched.ComputeBounds(g, *procs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%dx%d grid, %d sweeps: %d tasks, %d messages, CCR %.2f\n",
		*n, *n, *iters, g.NumNodes(), g.NumEdges(), g.CCR())
	fmt.Printf("lower bound on %d processors: %.6g (dependence %.6g, area %.6g)\n\n",
		*procs, lb.Combined, lb.Dependence, lb.Area)

	// The paper's five algorithms on the bounded machine; the clustering
	// algorithms run unbounded and are then mapped down (the PYRROS-style
	// post-pass, a beyond-paper extension).
	for _, name := range []string{"fast", "etf", "dls", "mcp", "dsc-map"} {
		s, err := fastsched.NewScheduler(name, 1)
		if err != nil {
			log.Fatal(err)
		}
		schedule, err := s.Schedule(g, *procs)
		if err != nil {
			log.Fatal(err)
		}
		if err := fastsched.Validate(g, schedule); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s SL %9.6g  (%.2fx lower bound)  procs %d\n",
			schedule.Algorithm, schedule.Length(), lb.Gap(schedule.Length()), schedule.ProcsUsed())
	}

	// FAST's search on the same instance: phase 1 alone, the paper's
	// greedy walk, and PFAST, which keeps the best of four walks.
	fmt.Println("\nFAST phase-2 search comparison:")
	type variant struct {
		name string
		opts fastsched.FASTOptions
	}
	for _, v := range []variant{
		{"no search", fastsched.FASTOptions{MaxSteps: -1}},
		{"greedy (paper)", fastsched.FASTOptions{Seed: 1, MaxSteps: 256}},
		{"pfast x4", fastsched.FASTOptions{Seed: 1, MaxSteps: 256, Parallelism: 4}},
	} {
		s, err := fastsched.FASTWith(v.opts).Schedule(g, *procs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-16s SL %9.6g  (%.2fx lower bound)\n",
			v.name, s.Length(), lb.Gap(s.Length()))
	}
}
