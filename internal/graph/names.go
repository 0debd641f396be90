package graph

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf8"
)

// Names is a graph's node name table, and the only code that turns a node
// token — a name, or the decimal id of an unnamed node — into the matrix
// row it stands for. The serving layer, the store's fold of its journal
// (snapshot plus WAL tail), followers and the CLI all resolve through it,
// which is what keeps a follower and a recovered store equal to the leader
// at equal seq: the same token stream assigns the same ids everywhere.
//
// The table covers node ids [0, len(ByID())), and Intern keeps that equal
// to g.Nodes(). It guards itself, so that readers resolve tokens beside the
// one writer that interns: mu is held for one map access or one read or
// update of the byID header, never across I/O or another lock. byID only
// appends, and no entry below its length is ever rewritten, so a reader
// that pinned it (ByID, View) renders names from it with no lock at all.
// Recovery hands the store fold's table (Fold.Names) to the registry.
type Names struct {
	mu    sync.RWMutex
	byID  []string       // node id → name, "" = unnamed
	plain []uint8        // node id → Plain(name), appended beside byID
	ids   map[string]int // name → node id
}

// NewNames builds the table of an n-node graph from its id → name slice
// ("" = unnamed; entries at or beyond n are dropped). The slice is copied.
func NewNames(n int, byID []string) *Names {
	t := &Names{byID: make([]string, n), plain: make([]uint8, n)}
	named := 0
	for id, name := range byID[:copy(t.byID, byID)] {
		t.plain[id] = Plain(name)
		if name != "" {
			named++
		}
	}
	t.ids = make(map[string]int, named)
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
func (t *Names) Lookup(tok string) (int, error) { return t.LookupIn(tok, len(t.ByID())) }

// LookupIn is Lookup against the table's first nodes ids: the node range of
// a graph version the caller pinned, which a table being interned into may
// already have outgrown. A name interned beyond it is unknown.
func (t *Names) LookupIn(tok string, nodes int) (int, error) {
	t.mu.RLock()
	id, named := t.ids[tok]
	t.mu.RUnlock()
	if named && id < nodes {
		return id, nil
	}
	id, err := strconv.Atoi(tok)
	if err != nil {
		return 0, ErrUnknownNode
	}
	if id < 0 || id >= nodes {
		return 0, &RangeError{ID: id, Nodes: nodes}
	}
	return id, nil
}

// Name renders a node id: its name, else the decimal id.
func (t *Names) Name(id int) string { return NameIn(t.ByID(), id) }

// NameIn renders a node id against a pinned ByID slice: its name, else the
// decimal id.
func NameIn(byID []string, id int) string {
	if id < len(byID) && byID[id] != "" {
		return byID[id]
	}
	return strconv.Itoa(id)
}

// ByID returns the id → name slice ("" = unnamed) as it stands. It is the
// table's own storage, which only appends: read it without a lock for as
// long as you like, and do not modify it.
func (t *Names) ByID() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byID
}

// View is the table as it stands, pinned for writing names out: ByID as
// ByID returns it, and Plain[id] the Plain flags of ByID[id], recorded
// when the table took the name in. Like ByID, it is the table's storage.
type View struct {
	ByID  []string
	Plain []uint8
}

// View returns the table as it stands.
func (t *Names) View() View {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return View{t.byID, t.plain}
}

// Plain flags say which JSON writers can copy a name between quotes as it
// is, so that one writing many names scans none of them.
const (
	// PlainJSON: valid UTF-8 with no control byte, quote, backslash,
	// U+2028 or U+2029 — encoding/json would escape none of it.
	PlainJSON uint8 = 1 << iota
	// PlainHTML: PlainJSON and no <, > or & either, so HTML-escaping JSON
	// (json.Marshal) would escape none of it.
	PlainHTML
)

// Plain returns the Plain flags of s.
func Plain(s string) uint8 {
	flags := PlainJSON | PlainHTML
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c < 0x20 || c == '"' || c == '\\':
				return 0
			case c == '<' || c == '>' || c == '&':
				flags = PlainJSON
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 || r == '\u2028' || r == '\u2029' {
			return 0
		}
		i += size
	}
	return flags
}

// Intern resolves one endpoint of an edge being added to g, growing g and
// the table as needed: a known name, else a non-negative numeral (growing
// the node range to cover it), else a fresh node appended under that name.
// With idsOnly the token is a canonical decimal id (the WAL's id-addressed
// frames, validated when the frame is decoded) and the names are never
// consulted: an id-addressed writer means id 7 even when some node is
// *named* "7". A table has one interning writer at a time: its callers
// serialise Intern, as they serialise appends to g.
func (t *Names) Intern(g *Graph, tok string, idsOnly bool) int {
	id, known := t.ids[tok] // only the interning writer writes ids
	fresh := false
	if idsOnly || !known {
		if n, err := strconv.Atoi(tok); idsOnly || err == nil && n >= 0 {
			id = n
		} else {
			id, fresh = g.Nodes(), true
		}
	}
	g.EnsureNode(id)
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.byID) < g.Nodes() {
		// A fresh node is appended under its name, never renamed in place.
		name := ""
		if fresh && len(t.byID) == id {
			name = tok
		}
		t.byID = append(t.byID, name)
		t.plain = append(t.plain, Plain(name))
	}
	if fresh {
		t.ids[tok] = id
	}
	return id
}
