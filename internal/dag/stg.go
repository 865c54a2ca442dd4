package dag

import (
	"bufio"
	"fmt"
	"io"
)

// ReadSTG parses a task graph in the Standard Task Graph format (see
// StreamSTG for the grammar) into a *Graph: StreamSTG followed by
// ToGraph. Nodes are labeled t<i>; every edge gets defaultComm.
func ReadSTG(r io.Reader, defaultComm float64) (*Graph, error) {
	c, err := StreamSTG(r, defaultComm)
	if err != nil {
		return nil, err
	}
	return c.ToGraph(), nil
}

// WriteSTG serializes the graph in STG form. Communication costs are
// not representable in STG and are dropped; callers exchanging graphs
// with comm weights should use the JSON format instead.
func WriteSTG(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d\n", g.NumNodes())
	for _, n := range g.Nodes() {
		fmt.Fprintf(bw, "%d %g %d", int(n.ID), n.Weight, g.InDegree(n.ID))
		for _, e := range g.Pred(n.ID) {
			fmt.Fprintf(bw, " %d", int(e.From))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
