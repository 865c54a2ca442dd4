package dag

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// StreamSTG parses a task graph in the Standard Task Graph (STG)
// format of Kasahara's benchmark suite (the standard exchange format in
// this literature) straight into a CSR:
//
//	<number of tasks>
//	<task id> <processing time> <#preds> <pred id> ...
//	...
//
// Lines starting with '#' and blank lines are ignored. Task IDs must be
// dense starting at 0 (the STG convention, which also uses zero-cost
// dummy entry/exit tasks — kept as-is). STG carries no communication
// costs; every edge gets defaultComm, which must be a finite,
// non-negative weight.
//
// The parse never materializes a *Graph, a per-row map, or per-node
// slices: the peak memory is the raw edge endpoints (8 bytes/edge)
// plus the finished arenas. Predecessor arenas keep each row's listed
// order and successor arenas are ordered by child ID, so ToGraph of the
// result — which is what ReadSTG returns — stores every adjacency list
// in that order.
//
// Nothing is ever allocated proportional to the declared task count
// before that many rows were actually consumed: a few-byte header
// claiming 2^30 tasks fails with a parse error, not an OOM (the
// FuzzReadSTG corpus case, replayed by FuzzStreamSTG).
func StreamSTG(r io.Reader, defaultComm float64) (*CSR, error) {
	return StreamSTGArena(r, defaultComm, nil)
}

// StreamSTGArena is StreamSTG with every dense table — row
// accumulators, raw edge endpoints, and the finished CSR arenas —
// drawn from a (the allocation-flat serving path). The parse is
// bit-identical to StreamSTG; a nil arena is exactly StreamSTG. The
// returned CSR's arrays belong to the arena and are invalidated by its
// next Reset; parse one graph per arena cycle.
func StreamSTGArena(r io.Reader, defaultComm float64, a *ScaleArena) (*CSR, error) {
	if math.IsNaN(defaultComm) || math.IsInf(defaultComm, 0) || defaultComm < 0 {
		return nil, fmt.Errorf("dag: stg: %w: default comm %v", ErrBadWeight, defaultComm)
	}
	var sc fieldScanner
	sc.init(r, a)
	head, err := sc.next()
	if err != nil {
		return nil, fmt.Errorf("dag: stg: missing task count: %w", err)
	}
	n, err := atoiBytes(head[0])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("dag: stg: bad task count %q", head[0])
	}

	// Row accumulators. All grow by append, tracking the rows actually
	// read — never pre-sized by the untrusted header count.
	var (
		rowID   []int32
		rowCost []float64
		efrom   []int32 // edge endpoints in file order: row order, preds in listed order
		eto     []int32
	)
	for i := 0; i < n; i++ {
		f, err := sc.next()
		if err != nil {
			return nil, fmt.Errorf("dag: stg: expected %d task rows, got %d", n, i)
		}
		if len(f) < 3 {
			return nil, fmt.Errorf("dag: stg: short task row %q", joinFields(f))
		}
		id, err := atoiBytes(f[0])
		if err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("dag: stg: bad task id %q", f[0])
		}
		cost, err := parseFloatBytes(f[1])
		if err != nil {
			return nil, fmt.Errorf("dag: stg: bad cost %q for task %d", f[1], id)
		}
		if badWeight(cost) {
			return nil, fmt.Errorf("dag: stg: %w: task %d has cost %v", ErrBadWeight, id, cost)
		}
		np, err := atoiBytes(f[2])
		if err != nil || np < 0 || len(f) != 3+np {
			return nil, fmt.Errorf("dag: stg: task %d declares %s predecessors, row has %d ids", id, f[2], len(f)-3)
		}
		for j := 0; j < np; j++ {
			p, err := atoiBytes(f[3+j])
			if err != nil || p < 0 || p >= n {
				return nil, fmt.Errorf("dag: stg: bad predecessor %q of task %d", f[3+j], id)
			}
			if p == id {
				return nil, fmt.Errorf("dag: stg: %w on node %d", ErrSelfLoop, id)
			}
			efrom = a.AppendI32(efrom, int32(p))
			eto = a.AppendI32(eto, int32(id))
		}
		rowID = a.AppendI32(rowID, int32(id))
		rowCost = a.AppendF64(rowCost, cost)
	}

	// All n rows were physically consumed, so O(n) tables are now
	// proportional to the input actually read.
	nodeW := a.F64(n)
	seen := a.Bool(n)
	for i, id := range rowID {
		if seen[id] {
			return nil, fmt.Errorf("dag: stg: duplicate task id %d", id)
		}
		seen[id] = true
		nodeW[id] = rowCost[i]
	}
	a.ReleaseI32(rowID)
	a.ReleaseF64(rowCost)
	c, err := finishCSR(nodeW, efrom, eto, nil, defaultComm, a)
	if err != nil {
		return nil, fmt.Errorf("dag: stg: %w", err)
	}
	return c, nil
}

// StreamEdgeList parses the package's streaming edge-list format into
// a CSR. The format is line-oriented, designed so a generator can emit
// a graph row by row in O(1) state and a reader can ingest it without
// ever holding more than the raw endpoint arrays:
//
//	# comment
//	v <count>            header: total node count (cross-checked)
//	n <weight>           declares the next node; IDs are assigned 0,1,2,... in order
//	e <from> <to> <weight>   an edge; both endpoints must already be declared
//
// Node and edge lines may interleave (a generator emits each node and
// then its in-edges), and the declare-before-use rule makes every
// line checkable as it arrives. Blank lines and '#' comments are
// ignored.
//
// The CSR's adjacency is canonicalized to child-major order: node n's
// predecessor slots keep the file order of the edges pointing at n,
// and successor slots are ordered by (child, file position). A file
// whose edges are grouped by child in ascending order — what
// WriteEdgeList and the layered generator emit — round-trips with its
// edge order intact.
func StreamEdgeList(r io.Reader) (*CSR, error) {
	return StreamEdgeListArena(r, nil)
}

// StreamEdgeListArena is StreamEdgeList drawing every dense table from
// a. Bit-identical output; nil arena is exactly StreamEdgeList. The
// returned CSR's arrays belong to the arena and are invalidated by its
// next Reset; parse one graph per arena cycle.
//
// A line in the writers' own shape (canonicalLine) is converted
// straight from the read buffer, in the one pass that finds its fields
// and its end; every other line, and one the buffer cuts short, is
// read to its end, split into fields and parsed token by token. Both
// give the same values and the same errors.
func StreamEdgeListArena(r io.Reader, a *ScaleArena) (*CSR, error) {
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
		kind, from, to, w, used := canonicalLine(sc.lr.buf[sc.lr.start:sc.lr.end])
		var f [][]byte // the fields of a line the canonical pass did not take
		if used > 0 {
			sc.lr.start += used
		} else {
			line, err := sc.lr.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("dag: edgelist: %w", err)
			}
			if f = sc.split(line); len(f) == 0 {
				continue
			}
			switch {
			case len(f[0]) == 1 && f[0][0] == 'n':
				if len(f) != 2 {
					return nil, fmt.Errorf("dag: edgelist: bad node line %q", joinFields(f))
				}
				if w, err = parseFloatBytes(f[1]); err != nil || badWeight(w) {
					return nil, fmt.Errorf("dag: edgelist: %w: node %d has weight %q", ErrBadWeight, len(nodeW), f[1])
				}
			case len(f[0]) == 1 && f[0][0] == 'e':
				if len(f) != 4 {
					return nil, fmt.Errorf("dag: edgelist: bad edge line %q", joinFields(f))
				}
				var err1, err2, err3 error
				from, err1 = atoiBytes(f[1])
				to, err2 = atoiBytes(f[2])
				w, err3 = parseFloatBytes(f[3])
				if err1 != nil || err2 != nil || err3 != nil {
					return nil, fmt.Errorf("dag: edgelist: bad edge line %q", joinFields(f))
				}
			default:
				return nil, fmt.Errorf("dag: edgelist: unknown line kind %q", f[0])
			}
			kind = f[0][0]
		}
		if kind == 'n' {
			if len(nodeW) >= declared {
				return nil, fmt.Errorf("dag: edgelist: more than the declared %d nodes", declared)
			}
			nodeW = a.AppendF64(nodeW, w)
			continue
		}
		if from < 0 || from >= len(nodeW) || to < 0 || to >= len(nodeW) {
			return nil, fmt.Errorf("dag: edgelist: %w: %d -> %d (declared so far: %d)", ErrEdgeEndpoint, from, to, len(nodeW))
		}
		if from == to {
			return nil, fmt.Errorf("dag: edgelist: %w on node %d", ErrSelfLoop, from)
		}
		if badWeight(w) { // only a split line's weight can be bad
			return nil, fmt.Errorf("dag: edgelist: %w: edge %d->%d has weight %q", ErrBadWeight, from, to, f[3])
		}
		efrom = a.AppendI32(efrom, int32(from))
		eto = a.AppendI32(eto, int32(to))
		ew = a.AppendF64(ew, w)
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

// canonicalLine converts, in one pass, the line at the start of buf
// when it has the shape WriteEdgeList and workload.WriteLayeredEdgeList
// emit: "n <w>" or "e <from> <to> <w>", the tokens separated by single
// spaces, each a run of 1–15 ASCII digits (so each converts exactly, as
// in atoiBytes and parseFloatBytes), ended by a '\n' inside buf. It
// returns how many bytes the line took, its '\n' included, or 0 for
// every other line, which the field split handles: a line buf cuts
// short, CR-LF endings, comments, tabs, runs of blanks, signs,
// decimals, exponents, longer digit runs and bytes >= 0x80.
func canonicalLine(buf []byte) (kind byte, from, to int, w float64, used int) {
	if len(buf) < 4 || buf[0] != 'n' && buf[0] != 'e' {
		return 0, 0, 0, 0, 0
	}
	var x [3]int
	tokens := 1
	if buf[0] == 'e' {
		tokens = 3
	}
	i := 1
	for t := range tokens {
		if i == len(buf) || buf[i] != ' ' {
			return 0, 0, 0, 0, 0
		}
		i++
		start, v := i, 0
		for ; i < len(buf) && buf[i]-'0' <= 9; i++ {
			v = v*10 + int(buf[i]-'0')
		}
		if i == start || i-start > 15 {
			return 0, 0, 0, 0, 0
		}
		x[t] = v
	}
	if i == len(buf) || buf[i] != '\n' {
		return 0, 0, 0, 0, 0
	}
	if tokens == 1 {
		return 'n', 0, 0, float64(x[0]), i + 1
	}
	return 'e', x[0], x[1], float64(x[2]), i + 1
}

// FinishCSR assembles a CSR from columnar raw data — per-node weights
// plus parallel edge endpoint/weight arrays — the in-process twin of
// the streaming readers for generators that already hold their output
// in arrays. A nil ew charges every edge uniformW. Endpoints, weights,
// duplicate edges and acyclicity are all validated; on success the
// nodeW slice is retained by the returned CSR.
func FinishCSR(nodeW []float64, efrom, eto []int32, ew []float64, uniformW float64) (*CSR, error) {
	v := len(nodeW)
	if len(eto) != len(efrom) || (ew != nil && len(ew) != len(efrom)) {
		return nil, fmt.Errorf("dag: csr: mismatched edge arrays: %d from, %d to, %d weights",
			len(efrom), len(eto), len(ew))
	}
	for n, w := range nodeW {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return nil, fmt.Errorf("dag: csr: %w: node %d has weight %v", ErrBadWeight, n, w)
		}
	}
	if ew == nil && (math.IsNaN(uniformW) || math.IsInf(uniformW, 0) || uniformW < 0) {
		return nil, fmt.Errorf("dag: csr: %w: uniform edge weight %v", ErrBadWeight, uniformW)
	}
	for i := range efrom {
		from, to := efrom[i], eto[i]
		if from < 0 || int(from) >= v || to < 0 || int(to) >= v {
			return nil, fmt.Errorf("dag: csr: edge %d->%d out of range (have %d nodes)", from, to, v)
		}
		if from == to {
			return nil, fmt.Errorf("dag: csr: %w on node %d", ErrSelfLoop, from)
		}
		if ew != nil {
			if w := ew[i]; math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("dag: csr: %w: edge %d->%d has weight %v", ErrBadWeight, from, to, w)
			}
		}
	}
	return finishCSR(nodeW, efrom, eto, ew, uniformW, nil)
}

// finishCSR assembles the arenas from raw edge endpoints via two
// stable counting scatters and validates the result (duplicates,
// cycle). ew carries per-edge weights in file order; a nil ew means
// every edge costs uniformW (the STG case, which then never allocates
// a raw weight array at all). The raw endpoint arrays are dead as soon
// as the predecessor arenas are built: with an arena their slabs are
// recycled straight into the successor arenas (the ingest peak stays at
// raw endpoints + one adjacency direction either way — without an
// arena the GC reclaims them at the same point).
func finishCSR(nodeW []float64, efrom, eto []int32, ew []float64, uniformW float64, a *ScaleArena) (*CSR, error) {
	v, e := len(nodeW), len(efrom)
	c := a.csr()
	c.PredOff = a.I32(v + 1)
	c.PredFrom = a.I32(e)
	c.PredW = a.F64(e)
	c.NodeW = nodeW
	// Predecessor arenas: stable scatter by child keeps file order
	// within each child's group.
	for _, to := range eto {
		c.PredOff[to+1]++
	}
	for n := 0; n < v; n++ {
		c.PredOff[n+1] += c.PredOff[n]
	}
	next := a.I32(v)
	copy(next, c.PredOff[:v])
	for i := 0; i < e; i++ {
		to := eto[i]
		s := next[to]
		next[to] = s + 1
		c.PredFrom[s] = efrom[i]
		if ew != nil {
			c.PredW[s] = ew[i]
		} else {
			c.PredW[s] = uniformW
		}
	}
	// The raw endpoint arrays are dead from here on; their slabs back
	// the successor arenas (without an arena, the GC reclaims them
	// while the successor arenas are built).
	a.ReleaseI32(efrom)
	a.ReleaseI32(eto)
	a.ReleaseF64(ew)
	c.SuccOff = a.I32(v + 1)
	c.SuccTo = a.I32(e)
	c.SuccW = a.F64(e)

	// Successor arenas: scatter the pred slots (walked child-ascending,
	// slot order) by parent — within each parent the slots land in
	// (child, file position) order.
	for _, from := range c.PredFrom {
		c.SuccOff[from+1]++
	}
	for n := 0; n < v; n++ {
		c.SuccOff[n+1] += c.SuccOff[n]
	}
	copy(next, c.SuccOff[:v])
	for to := 0; to < v; to++ {
		for s := c.PredOff[to]; s < c.PredOff[to+1]; s++ {
			from := c.PredFrom[s]
			i := next[from]
			next[from] = i + 1
			c.SuccTo[i] = int32(to)
			c.SuccW[i] = c.PredW[s]
		}
	}
	a.ReleaseI32(next)
	// Within each parent the successor slots are sorted by child, so
	// duplicate (from, to) pairs sit adjacent.
	for n := 0; n < v; n++ {
		for s := c.SuccOff[n] + 1; s < c.SuccOff[n+1]; s++ {
			if c.SuccTo[s] == c.SuccTo[s-1] {
				return nil, fmt.Errorf("%w: %d -> %d", ErrDuplicateEdge, n, c.SuccTo[s])
			}
		}
	}
	if err := c.topoCheck(a); err != nil {
		return nil, err
	}
	return c, nil
}

// WriteEdgeList serializes g in the StreamEdgeList format: all node
// lines in ID order, then the edges grouped by child ascending in
// stored predecessor order. A round trip preserves predecessor slot
// order exactly; successor order comes back canonicalized to
// child-major (a second round trip is bit-identical).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "v %d\n", g.NumNodes())
	for _, n := range g.Nodes() {
		fmt.Fprintf(bw, "n %g\n", n.Weight)
	}
	for i := 0; i < g.NumNodes(); i++ {
		for _, e := range g.Pred(NodeID(i)) {
			fmt.Fprintf(bw, "e %d %d %g\n", int(e.From), i, e.Weight)
		}
	}
	return bw.Flush()
}

// atoiBytes parses an integer token without allocating on the common
// path: a run of 1–15 ASCII digits converts directly (always in int
// range). Anything else — signs, hex, overflow-length runs — falls
// back to strconv.Atoi on a copied string, so acceptance and values
// agree with a string-based parse exactly.
func atoiBytes(b []byte) (int, error) {
	if n := len(b); n >= 1 && n <= 15 {
		v := 0
		digits := true
		for _, c := range b {
			if c < '0' || c > '9' {
				digits = false
				break
			}
			v = v*10 + int(c-'0')
		}
		if digits {
			return v, nil
		}
	}
	return strconv.Atoi(string(b))
}

// parseFloatBytes parses a float token without allocating on the
// common path: a run of 1–15 ASCII digits is at most 10^15-1 < 2^53,
// so the integer conversion is exactly the float64 ParseFloat would
// produce. Everything else falls back to strconv.ParseFloat on a
// copied string for bit-exact acceptance parity.
func parseFloatBytes(b []byte) (float64, error) {
	if n := len(b); n >= 1 && n <= 15 {
		v := uint64(0)
		digits := true
		for _, c := range b {
			if c < '0' || c > '9' {
				digits = false
				break
			}
			v = v*10 + uint64(c-'0')
		}
		if digits {
			return float64(v), nil
		}
	}
	return strconv.ParseFloat(string(b), 64)
}

// joinFields renders a field row for error messages, matching the old
// strings.Join(fields, " ") output.
func joinFields(f [][]byte) string {
	return string(bytes.Join(f, []byte{' '}))
}

// fieldScanner yields the whitespace-split fields of each non-blank,
// non-comment line as subslices of the read buffer — valid until the
// following next() call. Pure-ASCII lines split without allocating;
// lines carrying bytes >= 0x80 defer to strings.Fields so the split
// agrees with its unicode.IsSpace semantics exactly.
type fieldScanner struct {
	lr     lineReader
	arena  *ScaleArena
	fields [][]byte
}

func (f *fieldScanner) init(r io.Reader, a *ScaleArena) {
	buf, fields := a.lineScratch()
	f.lr = lineReader{r: r, buf: buf}
	f.arena = a
	f.fields = fields
}

func (f *fieldScanner) next() ([][]byte, error) {
	for {
		line, err := f.lr.next()
		if err != nil {
			return nil, err
		}
		if fields := f.split(line); len(fields) > 0 {
			return fields, nil
		}
	}
}

// split returns line's fields, up to a '#' comment; none for a blank
// or comment-only line.
func (f *fieldScanner) split(line []byte) [][]byte {
	if i := bytes.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := f.fields[:0]
	ascii := true
	for _, c := range line {
		if c >= 0x80 {
			ascii = false
			break
		}
	}
	if ascii {
		start := -1
		for i, c := range line {
			if c == ' ' || c == '\t' || c == '\v' || c == '\f' || c == '\r' {
				if start >= 0 {
					fields = append(fields, line[start:i])
					start = -1
				}
				continue
			}
			if start < 0 {
				start = i
			}
		}
		if start >= 0 {
			fields = append(fields, line[start:])
		}
	} else {
		for _, s := range strings.Fields(string(line)) {
			fields = append(fields, []byte(s))
		}
	}
	f.fields = fields
	f.arena.storeFields(fields)
	return fields
}

// lineReader is a value-type replacement for bufio.Scanner's line
// splitting: same 1 MiB line limit (bufio.ErrTooLong beyond it), same
// trailing-\r stripping, no allocation per line and no Scanner struct
// per parse — the warm streaming path's last per-call allocation.
type lineReader struct {
	r          io.Reader
	buf        []byte
	start, end int
	eof        bool
}

func (lr *lineReader) next() ([]byte, error) {
	empty := 0
	for {
		if i := bytes.IndexByte(lr.buf[lr.start:lr.end], '\n'); i >= 0 {
			line := lr.buf[lr.start : lr.start+i]
			lr.start += i + 1
			return dropCR(line), nil
		}
		if lr.eof {
			if lr.start < lr.end {
				line := lr.buf[lr.start:lr.end]
				lr.start = lr.end
				return dropCR(line), nil
			}
			return nil, io.EOF
		}
		if lr.start > 0 {
			copy(lr.buf, lr.buf[lr.start:lr.end])
			lr.end -= lr.start
			lr.start = 0
		}
		if lr.end == len(lr.buf) {
			return nil, bufio.ErrTooLong
		}
		n, err := lr.r.Read(lr.buf[lr.end:])
		lr.end += n
		if n == 0 && err == nil {
			if empty++; empty >= 100 {
				return nil, io.ErrNoProgress
			}
			continue
		}
		empty = 0
		if err == io.EOF {
			lr.eof = true
		} else if err != nil {
			return nil, err
		}
	}
}

func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}
