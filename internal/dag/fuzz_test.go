package dag

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzReadJSON drives the graph loader with arbitrary bytes: it must
// never panic, must accept exactly what its reflective oracle accepts
// and decode it to the same name and graph, and any input it accepts
// must be a valid graph that survives a write/read round trip.
func FuzzReadJSON(f *testing.F) {
	f.Add(`{"nodes":[{"id":0,"weight":1}],"edges":[]}`)
	f.Add(`{"name":"d","nodes":[{"id":0,"weight":2},{"id":1,"label":"b","weight":3}],"edges":[{"from":0,"to":1,"weight":4}]}`)
	f.Add(`{"nodes":[{"id":0,"weight":1},{"id":0,"weight":1}],"edges":[]}`)
	f.Add(`{`)
	f.Add(``)
	f.Add(`{"nodes":[{"id":0,"weight":-1}],"edges":[]}`)
	for _, in := range readJSONParitySeeds {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkReadJSONParity(t, input)
		g, name, err := ReadJSON(strings.NewReader(input))
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, g, name); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		g2, name2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if name2 != name || g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed the graph: %d/%d -> %d/%d",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}

// FuzzToGraphValidate holds the mirror check of a graph ToGraph built
// to the CSR's own. The fuzz bytes give a node count, then one edge
// per three bytes (parent, child, and a byte holding the weight and a
// fault); the edges scatter into a CSR of valid shape, so a repeated
// (from, to) pair stays on both sides, and the faults then make the
// predecessor side disagree: a changed weight, or two slots' parents
// swapped without their weights. c.Validate, c.ToGraph().Validate and
// c.ToGraph().Clone().Validate must accept or reject together, and the
// graph and its clone with the same error.
func FuzzToGraphValidate(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 0, 2, 2, 1, 2, 3})     // a valid triangle
	f.Add([]byte{3, 0, 1, 1 + 4, 0, 2, 2, 1, 2, 3}) // a changed weight
	f.Add([]byte{3, 0, 1, 1, 0, 2, 2 + 8, 1, 2, 3}) // swapped parents
	f.Add([]byte{3, 0, 1, 1, 0, 1, 2, 1, 2, 3})     // a repeated pair
	f.Add([]byte{1, 0, 1, 1, 1, 0, 1})              // a cycle
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		v := int(data[0])%6 + 1
		nodeW := make([]float64, v)
		for n := range nodeW {
			nodeW[n] = 1
		}
		var edges []jsonEdge
		var faults []byte
		for data = data[1:]; len(data) >= 3 && len(edges) < 16; data = data[3:] {
			edges = append(edges, jsonEdge{From: int(data[0]) % v, To: int(data[1]) % v, Weight: float64(data[2] % 4)})
			faults = append(faults, data[2]/4%4)
		}
		c := scatterCSR(nodeW, edges)
		for k, fault := range faults {
			switch j := (k + 1) % len(edges); fault {
			case 1:
				c.PredW[k]++
			case 2:
				c.PredFrom[k], c.PredFrom[j] = c.PredFrom[j], c.PredFrom[k]
			}
		}
		want := c.Validate()
		g := c.ToGraph()
		got, clone := g.Validate(), g.Clone().Validate()
		if (want == nil) != (got == nil) {
			t.Fatalf("CSR Validate %v, ToGraph's %v", want, got)
		}
		if fmt.Sprint(got) != fmt.Sprint(clone) {
			t.Fatalf("ToGraph's Validate %v, its clone's %v", got, clone)
		}
	})
}
