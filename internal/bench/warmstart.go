//lint:file-allow cfpqlint/ctxflow bench harness: standalone CLI tooling with no caller context; runs on its own root context by design
package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"cfpq"
	"cfpq/internal/dataset"
	"cfpq/internal/matrix"
	"cfpq/internal/store"
)

// WarmStartConfig drives RunWarmStart — the restart scenario behind
// `cfpqd -data-dir`: a cold start pays the full closure before the first
// query can be answered, a warm start loads the persisted index from a
// store and answers immediately. The measured cell is time-to-first-answer
// for one (dataset, grammar, backend).
type WarmStartConfig struct {
	// Datasets names the graphs to measure; nil means the five real
	// ontologies the other scenarios use (skos, foaf, funding, wine,
	// pizza).
	Datasets []string
	// Grammar names the query grammar: "query1", "query2" or "ancestors"
	// (see SingleSourceConfig). Empty means "query1", the paper's
	// same-generation query, whose closure dominates start-up.
	Grammar string
	// Backend names the matrix backend. Empty means sparse.
	Backend string
	// Repeats is the number of timed runs per phase; the minimum is
	// reported. Zero means 3.
	Repeats int
}

// WarmStartRow is one measured cell of the cold-vs-warm comparison, the
// unit of the BENCH_warmstart.json artifact.
type WarmStartRow struct {
	Scenario string `json:"scenario"`
	Dataset  string `json:"dataset"`
	Grammar  string `json:"grammar"`
	Backend  string `json:"backend"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// Entries is the total relation size of the persisted index;
	// IndexBytes its on-disk footprint.
	Entries    int   `json:"entries"`
	IndexBytes int64 `json:"index_bytes"`
	// ColdMS is time-to-first-answer when the closure must run;
	// WarmMS when the index is loaded from the store (store open + index
	// load + patch + first query); Speedup their ratio.
	ColdMS  float64 `json:"cold_ms"`
	WarmMS  float64 `json:"warm_ms"`
	Speedup float64 `json:"speedup"`
	// ColdProducts and WarmProducts are the Boolean matrix products each
	// start ran before its first answer — the closure work a warm start
	// exists to skip, and (unlike the two clocks on a sub-millisecond
	// closure) the same on every run: a warm start reports 0.
	ColdProducts int `json:"cold_products"`
	WarmProducts int `json:"warm_products"`
}

// RunWarmStart measures, per dataset, answering the first query (a) cold —
// full closure, then query — and (b) warm — open a populated store, load
// the saved index, bind it to the graph, query — verifying both give the
// same answer.
func RunWarmStart(cfg WarmStartConfig) ([]WarmStartRow, error) {
	names := cfg.Datasets
	if len(names) == 0 {
		names = defaultSingleSourceDatasets
	}
	gramName := cfg.Grammar
	if gramName == "" {
		gramName = "query1"
	}
	gram, err := singleSourceGrammar(gramName)
	if err != nil {
		return nil, err
	}
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		return nil, err
	}
	backendName := cfg.Backend
	if backendName == "" {
		backendName = "sparse"
	}
	be, err := cfpq.BackendByName(backendName)
	if err != nil {
		return nil, err
	}
	mbe, ok := matrix.BackendByName(backendName)
	if !ok {
		return nil, fmt.Errorf("bench: unknown backend %q", backendName)
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 3
	}
	eng := cfpq.NewEngine(be)
	ctx := context.Background()
	var rows []WarmStartRow
	for _, name := range names {
		d, ok := dataset.ByName(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown dataset %q", name)
		}
		g := d.Build()

		// Cold: the closure runs before the first answer.
		var coldCount, coldProducts int
		bestCold := time.Duration(0)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			p, err := eng.PrepareCNF(ctx, g.Clone(), cnf)
			if err != nil {
				return rows, err
			}
			coldCount = p.Count(ctx, "S")
			if dt := time.Since(start); bestCold == 0 || dt < bestCold {
				bestCold = dt
			}
			coldProducts = p.Stats().Build.Products
		}

		// Populate a store the way cfpqd's persistent mode would: graph
		// snapshot + saved index (untimed — this is the previous session's
		// work).
		dir, err := os.MkdirTemp("", "cfpq-warmstart-*")
		if err != nil {
			return rows, err
		}
		defer os.RemoveAll(dir)
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return rows, err
		}
		if err := st.CreateGraph(name, g, nil); err != nil {
			st.Close()
			return rows, err
		}
		ix, _, err := eng.Evaluate(ctx, g.Clone(), cnf)
		if err != nil {
			st.Close()
			return rows, err
		}
		entries := 0
		for _, c := range ix.Counts() {
			entries += c
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			st.Close()
			return rows, err
		}
		if err := st.SaveIndex(name, gramName, backendName, 0, buf.Bytes()); err != nil {
			st.Close()
			return rows, err
		}
		if err := st.Close(); err != nil {
			return rows, err
		}

		// Warm: open the store, load the index, bind, answer.
		var warmCount, warmProducts int
		bestWarm := time.Duration(0)
		for r := 0; r < repeats; r++ {
			start := time.Now()
			st, err := store.Open(dir, store.Options{})
			if err != nil {
				return rows, err
			}
			wg, _, _, err := st.GraphState(name)
			if err != nil {
				st.Close()
				return rows, err
			}
			infos := st.Indexes(name)
			if len(infos) != 1 {
				st.Close()
				return rows, fmt.Errorf("bench: %s: %d saved indexes, want 1", name, len(infos))
			}
			wix, _, err := st.LoadIndex(infos[0], cnf, mbe)
			if err != nil {
				st.Close()
				return rows, err
			}
			p, err := eng.PrepareFromIndex(wg, cnf, wix)
			if err != nil {
				st.Close()
				return rows, err
			}
			warmCount = p.Count(ctx, "S")
			if err := st.Close(); err != nil {
				return rows, err
			}
			if dt := time.Since(start); bestWarm == 0 || dt < bestWarm {
				bestWarm = dt
			}
			ps := p.Stats()
			if ps.Entries != entries {
				return rows, fmt.Errorf("bench: %s: warm-started index holds %d entries, the saved one %d", name, ps.Entries, entries)
			}
			warmProducts = ps.Build.Products + ps.Update.Products
		}
		if warmCount != coldCount {
			return rows, fmt.Errorf("bench: %s: warm answer %d != cold answer %d", name, warmCount, coldCount)
		}
		rows = append(rows, WarmStartRow{
			Scenario:   "warmstart",
			Dataset:    name,
			Grammar:    gramName,
			Backend:    backendName,
			Nodes:      g.Nodes(),
			Edges:      g.EdgeCount(),
			Entries:    entries,
			IndexBytes: int64(buf.Len()),
			ColdMS:     msFloat(bestCold),
			WarmMS:     msFloat(bestWarm),
			Speedup:    float64(bestCold) / float64(bestWarm),

			ColdProducts: coldProducts,
			WarmProducts: warmProducts,
		})
	}
	return rows, nil
}

// FormatWarmStart renders rows as a readable table.
func FormatWarmStart(w io.Writer, rows []WarmStartRow) {
	backend := "sparse"
	if len(rows) > 0 {
		backend = rows[0].Backend
	}
	fmt.Fprintf(w, "Warm start (load persisted index) vs cold start (run closure), %s backend\n\n", backend)
	fmt.Fprintf(w, "%-14s %-10s %8s %8s %9s %10s %10s %9s %14s\n",
		"Ontology", "grammar", "nodes", "entries", "idx(KiB)", "cold(ms)", "warm(ms)", "speedup", "products c/w")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %-10s %8d %8d %9.1f %10.2f %10.2f %8.1fx %10d / %d\n",
			r.Dataset, r.Grammar, r.Nodes, r.Entries, float64(r.IndexBytes)/1024,
			r.ColdMS, r.WarmMS, r.Speedup, r.ColdProducts, r.WarmProducts)
	}
}
