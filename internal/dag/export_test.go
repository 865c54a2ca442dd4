package dag

// HasDupSet reports whether g still holds AddEdge's duplicate-edge
// sets, for the external tests that also need plan.GraphKey.
func HasDupSet(g *Graph) bool { return g.dupSet != nil }

// StreamEdgeListOracle, CompareCSR and Chunked lend the field-split
// reader, the bit-for-bit CSR comparison and the chunking reader to the
// external scale test.
var (
	StreamEdgeListOracle = streamEdgeListOracle
	CompareCSR           = compareCSR
	Chunked              = chunked
)
