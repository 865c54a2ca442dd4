package dag

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"fastsched/internal/jsonscan"
)

// TestCompactShape holds compactNode and compactEdge to the writer's
// compact shape: they take it, with Scanner.Int's and Scanner.Float's
// values, and decline every element a byte away from it without
// touching the element.
func TestCompactShape(t *testing.T) {
	nodes := map[string]bool{
		`{"id":0,"weight":0}`:                            true,
		`{"id":7,"weight":12.375}`:                       true,
		`{"id":999999999999999,"weight":0.5}`:            true,
		`{"id":3,"label":"T1,2 ~x","weight":1.5}`:        true,
		`{"id":3,"label":"","weight":99999999999999.9}`:  true,
		`{"id":1000000000000000,"weight":1}`:             false, // 16 digits
		`{"id":3,"weight":1234567890123456}`:             false,
		`{"id":3,"weight":0.123456789012345}`:            false, // 16 digits with the leading 0
		`{"id":01,"weight":1}`:                           false,
		`{"id":3,"weight":00}`:                           false,
		`{"id":-0,"weight":1}`:                           false,
		`{"id":3,"weight":-0}`:                           false,
		`{"id":3,"weight":1e3}`:                          false,
		`{"id":3,"weight":1.}`:                           false,
		`{"id":3,"weight":.5}`:                           false,
		`{"id": 3,"weight":1}`:                           false,
		`{"id":3 ,"weight":1}`:                           false,
		`{"id":3,"weight":1 }`:                           false,
		` {"id":3,"weight":1}`:                           false,
		`{"weight":1,"id":3}`:                            false,
		`{"id":3,"weight":1,"x":0}`:                      false,
		`{"id":3,"weight":1,"id":4}`:                     false,
		`{"ID":3,"weight":1}`:                            false,
		`{"id":3,"label":null,"weight":1}`:               false,
		`{"id":3,"label":"a\"b","weight":1}`:             false,
		`{"id":3,"label":"\u00e9","weight":1}`:           false,
		"{\"id\":3,\"label\":\"\xc3\xa9\",\"weight\":1}": false,
		"{\"id\":3,\"label\":\"a\x01\",\"weight\":1}":    false,
		`{"id":3,"weight":1`:                             false,
		`{"id":3,"label":"ab`:                            false,
		`{"id":"3","weight":1}`:                          false,
	}
	for in, want := range nodes {
		d := &fileDecode{labels: []byte("old")}
		n := jsonNode{ID: -5, Label: "kept", Weight: -5}
		used := compactNode([]byte(in+","), &n, d)
		if (used > 0) != want {
			t.Errorf("compactNode(%s) took %d bytes, want %v", in, used, want)
			continue
		}
		if !want {
			if n != (jsonNode{ID: -5, Label: "kept", Weight: -5}) || string(d.labels) != "old" {
				t.Errorf("compactNode(%s) declined with %+v, labels %q", in, n, d.labels)
			}
			continue
		}
		w := jsonscan.New([]byte(in))
		var id int64
		var weight float64
		w.Enter('{')
		for i := 0; ; i++ {
			key, ok := w.Member(i)
			if !ok {
				break
			}
			switch string(key) {
			case "id":
				w.Int(&id)
			case "weight":
				w.Float(&weight)
			default:
				w.Skip()
			}
		}
		label := string(d.labels[n.labelAt:n.labelEnd])
		labelled := n.Label == "" && string(d.labels) == "old"+label && strings.Contains(in, `"label":"`+label+`"`)
		if !strings.Contains(in, `"label"`) {
			labelled = n.Label == "kept" && n.labelEnd == 0 && string(d.labels) == "old"
		}
		if used != len(in) || int64(n.ID) != id || n.Weight != weight || !labelled {
			t.Errorf("compactNode(%s) read %+v, label %q, in %d bytes; the walk reads id %d, weight %v", in, n, label, used, id, weight)
		}
	}
	edges := map[string]bool{
		`{"from":0,"to":12,"weight":3.25}`:   true,
		`{"from":0,"to":12,"weight":0}`:      true,
		`{"to":12,"from":0,"weight":3.25}`:   false,
		`{"from":0,"to":12,"weight":3.25e0}`: false,
		`{"from":0,"to":-1,"weight":3.25}`:   false,
		`{"from":0,"to":12,"weight":+3}`:     false,
		`{"from":0,"to":12}`:                 false,
		`{"from":0,"to":12,"weight":3.25,}`:  false,
		`{"from":0, "to":12,"weight":3.25}`:  false,
		`{"from":0,"to":12,"weight":3.25`:    false,
	}
	for in, want := range edges {
		e := jsonEdge{From: -5, To: -5, Weight: -5}
		used := compactEdge([]byte(in), &e)
		if (used > 0) != want || !want && e != (jsonEdge{From: -5, To: -5, Weight: -5}) ||
			want && (used != len(in) || e != jsonEdge{From: 0, To: 12, Weight: e.Weight}) {
			t.Errorf("compactEdge(%s) = %d, %+v; want %v", in, used, e, want)
		}
	}
}

// TestReleaseClearsDecode checks that a fileDecode goes back to the pool
// holding no pointer into the finished decode, its lists zeroed to their
// capacity, so a repeated key that reaches past a pooled list's length
// finds zero elements, as in a fresh list.
func TestReleaseClearsDecode(t *testing.T) {
	d := &fileDecode{
		jsonGraph: jsonGraph{
			Name:  "g",
			Nodes: append(make([]jsonNode, 0, 8), jsonNode{ID: 1, Label: "x", Weight: 2}, jsonNode{ID: 2, labelAt: 1, labelEnd: 3})[:1],
			Edges: []jsonEdge{{From: 1, To: 2, Weight: 3}},
		},
		labels: []byte("abc"),
		bad:    "nodes",
	}
	d.release()
	if d.Name != "" || d.bad != "" || len(d.labels) != 0 || cap(d.labels) < 3 || len(d.Nodes) != 0 || cap(d.Nodes) != 8 || len(d.Edges) != 0 {
		t.Fatalf("released decode keeps state: %+v", d)
	}
	for _, n := range d.Nodes[:cap(d.Nodes)] {
		if n != (jsonNode{}) {
			t.Fatalf("released node list holds %+v", n)
		}
	}
	if d.Edges[:1][0] != (jsonEdge{}) {
		t.Fatalf("released edge list holds %+v", d.Edges[:1][0])
	}
	// Decodes that reuse pooled lists read repeated keys as fresh ones do.
	for range 50 {
		checkReadJSONParity(t, `{"nodes":[{"id":0,"label":"a","weight":1},{"id":1,"label":"b","weight":2},{"id":2,"label":"é","weight":3}]}`)
		checkReadJSONParity(t, `{"nodes":[{"id":0,"weight":1}],"nodes":[{"id":0,"weight":1},{"id":1},{"id":2,"weight":3}],"edges":[{"from":0,"to":1,"weight":1}],"edges":[]}`)
	}
}

// FuzzDecodeCompact builds a graph body from the fuzz bytes in the
// compact shape WriteJSON and json.Compact give, each element either in
// that shape or in one mutation of it that the member walk must read:
// a digit run lengthened past 15 digits, a sign, an exponent, a blank,
// swapped keys, an escape or a byte >= 0x80 in a label, or a repeated
// key; the body may repeat its "nodes" or "edges" key. ReadJSON must
// agree with its reflective oracle on every body.
func FuzzDecodeCompact(f *testing.F) {
	f.Add([]byte{4, 10, 1, 0, 20, 2, 0, 30, 0, 0, 40, 4, 0, 0, 1, 9, 0, 1, 2, 17, 0, 2, 3, 25, 0, 0})
	for m := range 16 {
		f.Add([]byte{3, 8, 1, byte(m), 16, 2, byte(16 + m), 24, 3, byte(32 + m), 0, 1, 9, byte(m), 1, 2, 17, byte(16 + m), 1})
	}
	f.Add([]byte{2, 8, 2, 0, 16, 0, 0, 0, 1, 9, 0, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReadJSONParity(t, compactBody(data))
	})
}

// compactBody writes the body FuzzDecodeCompact decodes: from data, a
// node count, then per node a weight, a label choice and a mutation;
// then up to 16 edges, each two endpoints, a weight and a mutation;
// then a choice of repeated key. Missing bytes read as zero.
func compactBody(data []byte) string {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return int(c)
	}
	weight := func() string { return strconv.FormatFloat(float64(next())/8, 'f', -1, 64) }
	labels := []string{`"t1"`, `"T1,2 x"`, `""`, `"a\"b"`, `"\u00e9"`, "\"\xc3\xa9\"", "\"\xff\"", `null`}
	var b strings.Builder
	elem := func(keys, vals []string) {
		mut := next()
		k := mut / 16 % len(keys) // the member a mutation changes: a label if escaped
		if i := slices.Index(keys, "label"); i >= 0 && (mut%16 == 13 || mut%16 == 14) {
			k = i
		}
		switch mut % 16 {
		case 8: // a digit run lengthened past 15 digits
			vals[k] = vals[k][:1] + "000000000000000" + vals[k][1:]
		case 9: // a sign
			vals[k] = "-" + vals[k]
		case 10: // an exponent
			vals[k] += "e0"
		case 11: // a blank
			vals[k] = " " + vals[k]
		case 12: // swapped keys
			j := (k + 1) % len(keys)
			keys[k], keys[j] = keys[j], keys[k]
		case 13: // an escape
			vals[k] = `"\u0031\""`
		case 14: // a byte >= 0x80
			vals[k] = "\"\xc3\xa91\""
		case 15: // a repeated key
			keys, vals = append(keys, keys[k]), append(vals, strconv.Itoa(mut/64))
		}
		b.WriteByte('{')
		for i := range keys {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(`"` + keys[i] + `":` + vals[i])
		}
		b.WriteByte('}')
	}
	list := func(key string, n int, one func(i int)) {
		b.WriteString(`"` + key + `":[`)
		for i := range n {
			if i > 0 {
				b.WriteByte(',')
			}
			one(i)
		}
		b.WriteByte(']')
	}
	v := next()%6 + 1
	node := func(id int) {
		w, l := weight(), next()
		if l%2 == 0 {
			elem([]string{"id", "weight"}, []string{strconv.Itoa(id), w})
			return
		}
		elem([]string{"id", "label", "weight"}, []string{strconv.Itoa(id), labels[l/2%len(labels)], w})
	}
	edge := func(int) {
		from, to := next()%v, next()%v
		elem([]string{"from", "to", "weight"}, []string{strconv.Itoa(min(from, to)), strconv.Itoa(max(from, to)), weight()})
	}
	b.WriteByte('{')
	list("nodes", v, node)
	b.WriteByte(',')
	list("edges", min(len(data)/4, 16), edge)
	switch r := next(); r % 4 {
	case 1:
		b.WriteByte(',')
		list("nodes", r/4%(v+1), node)
	case 2:
		b.WriteByte(',')
		list("edges", r/4%4, edge)
	}
	b.WriteByte('}')
	return b.String()
}
