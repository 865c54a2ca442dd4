package dag

import (
	"bytes"
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
