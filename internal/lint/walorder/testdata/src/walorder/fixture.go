// Fixture for the walorder analyzer: write-ahead ordering inside the
// known mutation entry points. WAL, Prepared, Service and graphEntry are
// stand-ins matched by bare type name.
package fixture

type WAL struct{ records int }

func (w *WAL) AppendEdges(batch []int) error {
	w.records += len(batch)
	return nil
}

type graphEntry struct {
	edges   []int
	version int
}

func (g *graphEntry) AddEdge(a, b int) { g.edges = append(g.edges, a, b) }

// Prepared.AddEdges never journals at all: flagged at the name.
type Prepared struct {
	g *graphEntry
}

func (p *Prepared) AddEdges(batch []int) { // want `mutation entry point AddEdges never journals`
	p.g.edges = append(p.g.edges, batch...)
}

// Service.applyBatch mutates shared state before the journal write: each
// early mutation is flagged — an assignment, an update, and a mutating
// method call on a shared entry.
type Service struct {
	wal      *WAL
	entries  map[string]*graphEntry
	installs int
}

func (s *Service) applyBatch(name string, batch []int) error {
	ge := s.entries[name]
	ge.edges = append(ge.edges, batch...) // want `assignment to ge\.edges mutates in-memory state before the journal write`
	ge.version++                          // want `update of ge\.version mutates in-memory state before the journal write`
	ge.AddEdge(1, 2)                      // want `ge\.AddEdge mutates in-memory state before the journal write`
	return s.wal.AppendEdges(batch)
}

// installGraph populates a freshly allocated entry before the journal
// write — private until installed, so clean; the install itself and the
// receiver's own bookkeeping happen after the journal call.
func (s *Service) installGraph(name string) error {
	ge := &graphEntry{}
	ge.edges = append(ge.edges, 0)
	if err := s.wal.AppendEdges(nil); err != nil {
		return err
	}
	s.entries[name] = ge
	s.installs++
	return nil
}
