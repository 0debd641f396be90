package cfpq

import (
	"io"

	"cfpq/internal/conjunctive"
)

// This file holds the grammar/graph/index utilities that need no engine.
// The extensions built on the paper's §7 research directions — regular
// path queries by reduction to CFPQ, conjunctive grammars (upper
// approximation), minimal-length single-path semantics, and dynamic
// (incremental) query maintenance — are Engine methods (engine.go).

// ConjunctiveGrammar is a grammar with conjunctive productions
// (`A -> B C & D E`); see ParseConjunctive.
type ConjunctiveGrammar = conjunctive.Grammar

// ParseConjunctive parses a conjunctive grammar: the usual text format
// plus `&` separating conjuncts that must all derive the same fragment:
//
//	S -> A B & D C
//	A -> a A | a
func ParseConjunctive(text string) (*ConjunctiveGrammar, error) {
	return conjunctive.Parse(text)
}

// SaveIndex serialises an evaluated index so later sessions can query it
// without re-running the closure (Engine.LoadIndex). Pair it with the
// exact grammar at load time.
func SaveIndex(w io.Writer, ix *Index) error {
	_, err := ix.WriteTo(w)
	return err
}
