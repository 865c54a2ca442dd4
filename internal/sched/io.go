package sched

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"fastsched/internal/dag"
)

// jsonSchedule is the on-disk representation of a Schedule.
type jsonSchedule struct {
	Algorithm  string          `json:"algorithm,omitempty"`
	Placements []jsonPlacement `json:"placements"`
}

type jsonPlacement struct {
	Node   int     `json:"node"`
	Proc   int     `json:"proc"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// WriteJSON serializes the schedule in a stable, human-diffable JSON
// form (placements in node order).
func WriteJSON(w io.Writer, s *Schedule) error {
	js := jsonSchedule{Algorithm: s.Algorithm}
	for i := 0; i < s.NumNodes(); i++ {
		n := dag.NodeID(i)
		if !s.Assigned(n) {
			return fmt.Errorf("sched: cannot serialize: node %d unassigned", n)
		}
		pl := s.Of(n)
		js.Placements = append(js.Placements, jsonPlacement{
			Node: int(pl.Node), Proc: pl.Proc, Start: pl.Start, Finish: pl.Finish,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

// ReadJSON parses a schedule previously written by WriteJSON and
// validates it against g.
func ReadJSON(r io.Reader, g *dag.Graph) (*Schedule, error) {
	var js jsonSchedule
	if err := json.NewDecoder(r).Decode(&js); err != nil {
		return nil, fmt.Errorf("sched: decode: %w", err)
	}
	if len(js.Placements) != g.NumNodes() {
		return nil, fmt.Errorf("sched: %d placements for a %d-node graph", len(js.Placements), g.NumNodes())
	}
	s := New(g.NumNodes())
	s.Algorithm = js.Algorithm
	for _, pl := range js.Placements {
		if pl.Node < 0 || pl.Node >= g.NumNodes() {
			return nil, fmt.Errorf("sched: placement for unknown node %d", pl.Node)
		}
		if pl.Proc < 0 || pl.Proc > math.MaxInt32 {
			return nil, fmt.Errorf("sched: node %d on processor %d, outside [0, %d]", pl.Node, pl.Proc, math.MaxInt32)
		}
		n := dag.NodeID(pl.Node)
		if s.Assigned(n) {
			return nil, fmt.Errorf("sched: duplicate placement for node %d", pl.Node)
		}
		s.Place(n, pl.Proc, pl.Start, pl.Finish)
	}
	if err := Validate(g, s); err != nil {
		return nil, err
	}
	return s, nil
}
