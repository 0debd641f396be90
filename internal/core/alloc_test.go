package core

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"cfpq/internal/grammar"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
	"cfpq/internal/matrix"
)

// allocated returns the heap bytes fn allocated, live or not, and the
// number of heap objects it allocated them in.
func allocated(fn func()) (bytes, mallocs int64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc), int64(after.Mallocs - before.Mallocs)
}

// TestClosureAllocatesNothingPerPass guards the fixed cost of the fixpoint
// loop on the deepest benchmark input, graphgen's 10⁴-node chain under
// S → a S b | a b: 1024 passes, each deriving one pair. An evaluation may
// allocate what it holds — the two frontier sets, once, and the rows of the
// pairs it derives — but nothing the size of the node range per pass or per
// product: one n-row list per pass is 245 MB here (the in-place loop this
// one replaced allocated 380 MB for the same 1 MB index). The cold byte
// bound leaves a few times what the loop needs today, the update's about
// 6 % (under -race the update reads 1 162 984 bytes and 2 132 mallocs).
//
// The malloc bounds pin the count of heap objects instead, at today's
// count plus half an object per pass: about two per pass go to the rows
// of the derived pairs (the rows of T that outgrow their room; the
// frontier's rows go into storage its matrices keep across passes), and
// one more per pass —
// a trace argument built while tracing is off, say fmt.Sprintf at the
// pass hook — breaks them. Lower them when a change earns it, never raise
// them.
func TestClosureAllocatesNothingPerPass(t *testing.T) {
	const n = 10_000
	full, err := graphgen.Generate(graphgen.Spec{Kind: graphgen.KindChain, Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	cnf := grammar.MustCNF(grammar.MustParse("S -> a S b | a b"))
	ctx := context.Background()
	e := NewEngine()

	ix := e.Init(full, cnf)
	var stats Stats
	got, mallocs := allocated(func() { stats, err = e.CloseContext(ctx, ix) })
	if err != nil || got >= 16<<20 {
		t.Errorf("cold closure allocated %d bytes over %d passes (err %v), want < 16 MB", got, stats.Iterations, err)
	}
	if bound := int64(2082 + stats.Iterations/2); mallocs >= bound {
		t.Errorf("cold closure made %d mallocs over %d passes, want < %d", mallocs, stats.Iterations, bound)
	}
	if stats.Iterations < 1000 {
		t.Fatalf("the chain closed in %d passes: not the deep input this guard needs", stats.Iterations)
	}

	// The same depth as an update: close the chain without the edge that
	// joins its a-run to its b-run — no pair derives — then add it, and the
	// one edge derives every pair of the closure, a pass at a time. What an
	// update holds: the two frontier sets — here the row lists of the three
	// slots written, S's and S#1's alternating heads and the seed's T_a#1,
	// 3 × 24 B × n — and a Delta of O(pairs): an 8-byte key per derived
	// pair, grown by append, and a 16-byte Pair. It reads 1 148 200 bytes
	// and 2 114 mallocs (the parent, which cloned each touched frontier
	// matrix into the Delta, 1 876 952 and 3 136).
	var joint graph.Edge
	cut := graph.New(n)
	for _, ed := range full.Edges() {
		if ed.Label == "a" && full.HasEdge(ed.To, "b", ed.To+1) {
			joint = ed
			continue
		}
		cut.AddEdge(ed.From, ed.Label, ed.To)
	}
	ix, _, err = e.RunContext(ctx, cut, cnf)
	if err != nil || ix.Count("S") != 0 {
		t.Fatalf("closure of the cut chain: %d S-pairs, err %v", ix.Count("S"), err)
	}
	matrixBytes := int64(cnf.NonterminalCount()) * 24 * n
	bound := matrixBytes + 256<<10
	var delta *Delta
	got, mallocs = allocated(func() { stats, delta, err = e.UpdateContext(ctx, ix, joint) })
	if err != nil || got >= bound {
		t.Errorf("one-edge update allocated %d bytes over %d passes (err %v), want < %d", got, stats.Iterations, err, bound)
	}
	if bound := int64(2115 + stats.Iterations/2); mallocs >= bound {
		t.Errorf("one-edge update made %d mallocs over %d passes, want < %d", mallocs, stats.Iterations, bound)
	}
	if stats.Iterations < 1000 || len(delta.Pairs("S")) != ix.Count("S") || ix.Count("S") == 0 {
		t.Fatalf("the joining edge derived %d of %d S-pairs in %d passes: not the deep update this guard needs",
			len(delta.Pairs("S")), ix.Count("S"), stats.Iterations)
	}
}

// TestColdBuildAllocatesWhatItKeeps guards a wide cold build's heap: a
// cold RunContext under S → a S b | a b on graphgen's 4096-node grid and
// seeded 10⁴-node scale-free graph may allocate at most 5 % over the bytes
// and heap objects it took when this guard was set (earlier pins: before
// Absorb, reused frontier storage and one-array relations, 14.18 MB /
// 345 675 objects and 5.27 MB / 90 910; before frontier sets only for rule
// heads, 13.47 MB / 168 936 and 4.77 MB / 31 318; before rows grew in
// place and unwritten matrices went without a row list, 13.08 MB /
// 168 928 and 3.97 MB / 31 311). What it allocates: the relations, each
// built in one array; the rows of T that outgrow their room, each moved
// into a row with append's headroom, so a row that gains a bit a pass
// moves O(log) times; the row headers of the frontier matrices some
// pass writes — in these grammars the heads alternate, so one of each
// head's two — and storage for their rows that they keep from pass to
// pass; the column indexes products build. The headroom T keeps is in its
// Bytes: 24 bytes a row header and 4 a slot of capacity, at least.
//
// The index's encoding and decoding are held to what they keep as well:
// WriteTo streams in O(1) memory — into io.Discard it allocates at most
// 32 KiB — and into a bytes.Buffer it grows the buffer once, at the
// encoded length; DecodeIndex allocates a fixed number of objects per
// relation, whatever it holds: a relation's row list, its ends and its
// column array, the row headers that window it, and the matrix; ReadIndex
// adds one buffer, sized by the reader.
func TestColdBuildAllocatesWhatItKeeps(t *testing.T) {
	cnf := grammar.MustCNF(grammar.MustParse("S -> a S b | a b"))
	for _, c := range []struct {
		spec           graphgen.Spec
		bytes, mallocs int64
	}{
		// -race reads 2 998 824 bytes, within the 5 %.
		{graphgen.Spec{Kind: graphgen.KindGrid, Nodes: 4096}, 2_885_528, 34_670},
		// The byte count is the -race reading, which the race detector's
		// own objects put 0.18 MB above the plain 3 238 848, past its 5 %.
		{graphgen.Spec{Kind: graphgen.KindScaleFree, Nodes: 10_000, Degree: 3, Seed: 1}, 3_419_680, 27_318},
	} {
		g, err := graphgen.Generate(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var ix *Index
		got, mallocs := allocated(func() { ix, _, err = NewEngine().RunContext(context.Background(), g, cnf) })
		if err != nil || ix.Count("S") == 0 {
			t.Fatalf("%s: %d S-pairs, err %v", c.spec.Kind, ix.Count("S"), err)
		}
		if bound := c.bytes * 105 / 100; got > bound {
			t.Errorf("%s: cold build allocated %d bytes, want ≤ %d", c.spec.Kind, got, bound)
		}
		if bound := c.mallocs * 105 / 100; mallocs > bound {
			t.Errorf("%s: cold build made %d mallocs, want ≤ %d", c.spec.Kind, mallocs, bound)
		}
		headroom := false
		for a, m := range ix.mats {
			held := 24 * int64(ix.n)
			matrix.RangeRows(m, func(_ int, cols []int32) bool {
				held += 4 * int64(cap(cols))
				headroom = headroom || cap(cols) > len(cols)
				return true
			})
			if m.Bytes() < held {
				t.Errorf("%s: %s reports %d bytes, its row headers and row capacity take %d", c.spec.Kind, ix.cnf.Names[a], m.Bytes(), held)
			}
		}
		if !headroom {
			t.Errorf("%s: no row of the index holds headroom: the Bytes check is vacuous", c.spec.Kind)
		}

		if got, _ = allocated(func() { _, err = ix.WriteTo(io.Discard) }); err != nil || got > 32<<10 {
			t.Errorf("%s: WriteTo into io.Discard allocated %d bytes (err %v), want ≤ 32 KiB", c.spec.Kind, got, err)
		}
		var buf bytes.Buffer
		got, _ = allocated(func() { _, err = ix.WriteTo(&buf) })
		if err != nil || int64(buf.Len()) != ix.encodedLen() {
			t.Fatalf("%s: encoded %d bytes of %d (err %v)", c.spec.Kind, buf.Len(), ix.encodedLen(), err)
		}
		// One Grow by the encoded length is the yardstick: it allocates
		// the length itself, or twice it where the race detector keeps
		// the compiler from eliding growSlice's temporary. WriteTo adds
		// the one chunk buffer it encodes through, and 1 % is slack.
		grow, _ := allocated(func() { new(bytes.Buffer).Grow(buf.Len()) })
		if bound := grow + indexChunk + ix.encodedLen()/100; got > bound {
			t.Errorf("%s: WriteTo allocated %d bytes for a %d-byte encoding, want ≤ %d", c.spec.Kind, got, buf.Len(), bound)
		}
		_, mallocs = allocated(func() { _, err = DecodeIndex(buf.Bytes(), cnf, nil) })
		if bound := int64(4 + 6*cnf.NonterminalCount()); err != nil || mallocs > bound {
			t.Errorf("%s: DecodeIndex made %d mallocs (err %v), want ≤ %d", c.spec.Kind, mallocs, err, bound)
		}
		// ReadIndex adds the one buffer it reads a sized reader into.
		_, mallocs = allocated(func() { _, err = ReadIndex(bytes.NewReader(buf.Bytes()), cnf, nil) })
		if bound := int64(6 + 6*cnf.NonterminalCount()); err != nil || mallocs > bound {
			t.Errorf("%s: ReadIndex made %d mallocs (err %v), want ≤ %d", c.spec.Kind, mallocs, err, bound)
		}
	}
}
