package dag

// HasDupSet reports whether g still holds AddEdge's duplicate-edge
// sets, for the external tests that also need plan.GraphKey.
func HasDupSet(g *Graph) bool { return g.dupSet != nil }
