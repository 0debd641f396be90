package main

// The checker: every answer the child gives is compared with the oracle's,
// by node name, and every mismatch is a failed op.

import (
	"fmt"
	"strconv"

	"cfpq/internal/matrix"
	"cfpq/internal/server"
)

func checkCount(ans server.QueryAnswer, want int) error {
	if ans.Count == nil || *ans.Count != want {
		got := "none"
		if ans.Count != nil {
			got = strconv.Itoa(*ans.Count)
		}
		return fmt.Errorf("count: got %s, oracle %d", got, want)
	}
	return nil
}

func checkExists(ans server.QueryAnswer, want bool) error {
	if ans.Exists == nil || *ans.Exists != want {
		return fmt.Errorf("exists: got %v, oracle %v", ans.Exists, want)
	}
	return nil
}

func nodeID(name string) (int, error) {
	if len(name) < 2 || name[0] != 'n' {
		return 0, fmt.Errorf("answer names node %q, which the generator never made", name)
	}
	return strconv.Atoi(name[1:])
}

// checkPairsFrom accepts an answer whose pairs all leave src, are distinct,
// include every target in must and none outside may.
func checkPairsFrom(ans server.QueryAnswer, src int, must, may map[int]bool) error {
	seen := map[int]bool{}
	for _, p := range ans.Pairs {
		from, err := nodeID(p.From)
		if err != nil {
			return err
		}
		to, err := nodeID(p.To)
		if err != nil {
			return err
		}
		switch {
		case from != src:
			return fmt.Errorf("pairs from %d: answer holds a pair leaving %d", src, from)
		case seen[to]:
			return fmt.Errorf("pairs from %d: target %d twice", src, to)
		case !may[to]:
			return fmt.Errorf("pairs from %d: target %d is not in the oracle's relation", src, to)
		}
		seen[to] = true
	}
	for to := range must {
		if !seen[to] {
			return fmt.Errorf("pairs from %d: target %d missing (answer has %d of %d)", src, to, len(seen), len(must))
		}
	}
	if ans.Truncated {
		return fmt.Errorf("pairs from %d: truncated without a limit", src)
	}
	return nil
}

// checkPage accepts a limited answer of exactly want distinct pairs, all in
// the relation, flagged truncated exactly when more exist.
func checkPage(ans server.QueryAnswer, rel map[matrix.Pair]bool, want int, truncated bool) error {
	if len(ans.Pairs) != want {
		return fmt.Errorf("page: %d pairs, want %d", len(ans.Pairs), want)
	}
	seen := map[matrix.Pair]bool{}
	for _, p := range ans.Pairs {
		from, err := nodeID(p.From)
		if err != nil {
			return err
		}
		to, err := nodeID(p.To)
		if err != nil {
			return err
		}
		pr := matrix.Pair{I: from, J: to}
		if seen[pr] {
			return fmt.Errorf("page: pair (%d,%d) twice", from, to)
		}
		if !rel[pr] {
			return fmt.Errorf("page: pair (%d,%d) is not in the oracle's relation", from, to)
		}
		seen[pr] = true
	}
	if ans.Truncated != truncated {
		return fmt.Errorf("page: truncated=%v, want %v", ans.Truncated, truncated)
	}
	return nil
}

// checkPush accepts one event that carries exactly the pairs the oracle
// says the batch derived, none of them pushed before on this stream.
func checkPush(got []server.NamedPair, want []matrix.Pair, seen map[server.NamedPair]bool) error {
	wantSet := make(map[server.NamedPair]bool, len(want))
	for _, p := range want {
		wantSet[server.NamedPair{From: nodeName(p.I), To: nodeName(p.J)}] = true
	}
	for _, p := range got {
		if seen[p] {
			return fmt.Errorf("push: pair %v pushed twice", p)
		}
		seen[p] = true
		if !wantSet[p] {
			return fmt.Errorf("push: pair %v is not among the %d the batch derives", p, len(want))
		}
		delete(wantSet, p)
	}
	if len(wantSet) > 0 {
		return fmt.Errorf("push: %d of the batch's %d pairs never arrived", len(wantSet), len(want))
	}
	return nil
}

// checkUnion compares everything a stream pushed with after − before.
func checkUnion(pushed map[server.NamedPair]bool, want []matrix.Pair) error {
	if len(pushed) != len(want) {
		return fmt.Errorf("push union: stream delivered %d distinct pairs, the relation grew by %d", len(pushed), len(want))
	}
	missing := 0
	for _, p := range want {
		if !pushed[server.NamedPair{From: nodeName(p.I), To: nodeName(p.J)}] {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("push union: %d derived pairs were never pushed", missing)
	}
	return nil
}
