package dag

import (
	"bytes"
	"fmt"
	"io"
	"math"
)

// streamEdgeListOracle is the edge-list reader before canonical lines
// got their own pass: every line is split into fields and every token
// parsed on its own. FuzzStreamEdgeList and the scale test hold
// StreamEdgeListArena to it — acceptance, error text and every CSR
// array.
func streamEdgeListOracle(r io.Reader, a *ScaleArena) (*CSR, error) {
	var sc fieldScanner
	sc.init(r, a)
	head, err := sc.next()
	if err != nil {
		return nil, fmt.Errorf("dag: edgelist: missing header: %w", err)
	}
	if len(head) != 2 || !bytes.Equal(head[0], []byte{'v'}) {
		return nil, fmt.Errorf("dag: edgelist: bad header %q, want \"v <count>\"", joinFields(head))
	}
	declared, err := atoiBytes(head[1])
	if err != nil || declared < 1 {
		return nil, fmt.Errorf("dag: edgelist: bad node count %q", head[1])
	}

	var (
		nodeW []float64
		efrom []int32
		eto   []int32
		ew    []float64
	)
	for {
		f, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dag: edgelist: %w", err)
		}
		switch {
		case len(f[0]) == 1 && f[0][0] == 'n':
			if len(f) != 2 {
				return nil, fmt.Errorf("dag: edgelist: bad node line %q", joinFields(f))
			}
			w, err := parseFloatBytes(f[1])
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("dag: edgelist: %w: node %d has weight %q", ErrBadWeight, len(nodeW), f[1])
			}
			if len(nodeW) >= declared {
				return nil, fmt.Errorf("dag: edgelist: more than the declared %d nodes", declared)
			}
			nodeW = a.AppendF64(nodeW, w)
		case len(f[0]) == 1 && f[0][0] == 'e':
			if len(f) != 4 {
				return nil, fmt.Errorf("dag: edgelist: bad edge line %q", joinFields(f))
			}
			from, err1 := atoiBytes(f[1])
			to, err2 := atoiBytes(f[2])
			w, err3 := parseFloatBytes(f[3])
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("dag: edgelist: bad edge line %q", joinFields(f))
			}
			if from < 0 || from >= len(nodeW) || to < 0 || to >= len(nodeW) {
				return nil, fmt.Errorf("dag: edgelist: %w: %d -> %d (declared so far: %d)", ErrEdgeEndpoint, from, to, len(nodeW))
			}
			if from == to {
				return nil, fmt.Errorf("dag: edgelist: %w on node %d", ErrSelfLoop, from)
			}
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("dag: edgelist: %w: edge %d->%d has weight %q", ErrBadWeight, from, to, f[3])
			}
			efrom = a.AppendI32(efrom, int32(from))
			eto = a.AppendI32(eto, int32(to))
			ew = a.AppendF64(ew, w)
		default:
			return nil, fmt.Errorf("dag: edgelist: unknown line kind %q", f[0])
		}
	}
	if len(nodeW) != declared {
		return nil, fmt.Errorf("dag: edgelist: header declares %d nodes, file has %d", declared, len(nodeW))
	}
	c, err := finishCSR(nodeW, efrom, eto, ew, 0, a)
	if err != nil {
		return nil, fmt.Errorf("dag: edgelist: %w", err)
	}
	return c, nil
}
