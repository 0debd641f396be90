package graph

import (
	"errors"
	"fmt"
	"strconv"
)

// Names is a graph's node name table, and the only code that turns a node
// token — a name, or the decimal id of an unnamed node — into the matrix
// row it stands for. The serving layer, the store's fold of its journal
// (snapshot plus WAL tail), followers and the CLI all resolve through it,
// which is what keeps a follower and a recovered store equal to the leader
// at equal seq: the same token stream assigns the same ids everywhere.
//
// The table covers node ids [0, len(ByID())), and Intern keeps that equal
// to g.Nodes(). It has no lock of its own: callers hold whatever guards the
// graph. Recovery hands the store fold's table (Fold.Names) to the registry.
type Names struct {
	byID []string       // node id → name, "" = unnamed
	ids  map[string]int // name → node id
}

// NewNames builds the table of an n-node graph from its id → name slice
// ("" = unnamed; entries at or beyond n are dropped). The slice is copied.
func NewNames(n int, byID []string) *Names {
	t := &Names{byID: make([]string, n), ids: map[string]int{}}
	copy(t.byID, byID)
	for id, name := range t.byID {
		if name != "" {
			t.ids[name] = id
		}
	}
	return t
}

// ErrUnknownNode is Lookup's error for a token that is neither a name in
// the table nor a numeral.
var ErrUnknownNode = errors.New("unknown node")

// RangeError is Lookup's error for a numeral outside the node range.
type RangeError struct{ ID, Nodes int }

func (e *RangeError) Error() string {
	return fmt.Sprintf("node id %d out of range [0,%d)", e.ID, e.Nodes)
}

// Lookup resolves a token without changing the table: a name first (so a
// node *named* "7" beats id 7), then a decimal id inside the node range.
// A numeral outside the range fails with a *RangeError, anything else with
// ErrUnknownNode.
func (t *Names) Lookup(tok string) (int, error) {
	if id, ok := t.ids[tok]; ok {
		return id, nil
	}
	id, err := strconv.Atoi(tok)
	if err != nil {
		return 0, ErrUnknownNode
	}
	if id < 0 || id >= len(t.byID) {
		return 0, &RangeError{ID: id, Nodes: len(t.byID)}
	}
	return id, nil
}

// Name renders a node id: its name, else the decimal id.
func (t *Names) Name(id int) string {
	if id < len(t.byID) && t.byID[id] != "" {
		return t.byID[id]
	}
	return strconv.Itoa(id)
}

// ByID returns the id → name slice ("" = unnamed). It is the table's own
// storage: read it under the lock that guards the graph, do not modify it.
func (t *Names) ByID() []string { return t.byID }

// Intern resolves one endpoint of an edge being added to g, growing g and
// the table as needed: a known name, else a non-negative numeral (growing
// the node range to cover it), else a fresh node appended under that name.
// With idsOnly the token is a canonical decimal id (the WAL's id-addressed
// frames, validated when the frame is decoded) and the names are never
// consulted: an id-addressed writer means id 7 even when some node is
// *named* "7".
func (t *Names) Intern(g *Graph, tok string, idsOnly bool) int {
	var id int
	fresh := false
	if idsOnly {
		id, _ = strconv.Atoi(tok)
	} else if known, ok := t.ids[tok]; ok {
		id = known
	} else if n, err := strconv.Atoi(tok); err == nil && n >= 0 {
		id = n
	} else {
		id, fresh = g.Nodes(), true
	}
	g.EnsureNode(id)
	for len(t.byID) < g.Nodes() {
		t.byID = append(t.byID, "")
	}
	if fresh {
		t.byID[id] = tok
		t.ids[tok] = id
	}
	return id
}
