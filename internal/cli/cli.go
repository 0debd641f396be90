// Package cli implements the cfpq command-line tool: flag parsing, input
// loading and result printing, factored out of cmd/cfpq so the whole
// pipeline is unit-testable. Relational evaluation builds one declarative
// cfpq.Request and hands it to the planner (Engine.Do, or Prepared.Do on
// a loaded index) — the same surface the server and benchmarks use;
// -explain surfaces the planner's strategy choice.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"cfpq"
	"cfpq/internal/graph"
)

// Config is the parsed command line.
type Config struct {
	GraphPath  string
	QueryPath  string
	Start      string
	Backend    string
	Semantics  string
	Sources    string
	Targets    string
	Explain    bool
	Trace      bool
	Limit      int
	CountOnly  bool
	EmptyPaths bool
	Names      bool
	// SaveIndex persists the evaluated closure index (CFPQIDX2) to this
	// path after answering; LoadIndex answers from a previously saved
	// index instead of running the closure (the warm-start path). Both
	// are relational-semantics only.
	SaveIndex string
	LoadIndex string
}

// ParseArgs parses command-line arguments into a Config.
func ParseArgs(args []string, stderr io.Writer) (*Config, error) {
	fs := flag.NewFlagSet("cfpq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &Config{}
	fs.StringVar(&cfg.GraphPath, "graph", "", "N-Triples graph file (required)")
	fs.StringVar(&cfg.QueryPath, "query", "", "grammar file (required)")
	fs.StringVar(&cfg.Start, "start", "S", "start non-terminal")
	fs.StringVar(&cfg.Backend, "backend", "sparse",
		"matrix backend, for either semantics: dense or sparse")
	fs.StringVar(&cfg.Semantics, "semantics", "relational",
		"query semantics: relational or single-path")
	fs.StringVar(&cfg.Sources, "sources", "",
		"comma-separated source nodes (IRIs or ids): restrict the query to pairs\n"+
			"leaving these nodes, evaluated with the source-restricted closure\n"+
			"(relational semantics only)")
	fs.StringVar(&cfg.Targets, "targets", "",
		"comma-separated target nodes (IRIs or ids): restrict the query to pairs\n"+
			"entering these nodes, evaluated with the target-restricted closure\n"+
			"over the reversed graph (relational semantics only)")
	fs.BoolVar(&cfg.Explain, "explain", false,
		"print the planner's chosen strategy as a leading '# plan:' line\n"+
			"(relational semantics only)")
	fs.BoolVar(&cfg.Trace, "trace", false,
		"print the evaluation's per-pass trace as a leading '# trace' table:\n"+
			"pass index, products, nnz delta, frontier saturation, bytes, wall\n"+
			"time per closure pass (relational semantics only)")
	fs.IntVar(&cfg.Limit, "limit", 0,
		"print at most this many pairs; a clipped list is flagged on the\n"+
			"-explain line (relational semantics only)")
	fs.BoolVar(&cfg.CountOnly, "count", false, "print only the result count")
	fs.BoolVar(&cfg.EmptyPaths, "empty-paths", false,
		"include (v,v) pairs when the start non-terminal derives ε")
	fs.BoolVar(&cfg.Names, "names", false, "print IRIs instead of node ids")
	fs.StringVar(&cfg.SaveIndex, "save-index", "",
		"after answering, save the evaluated closure index to this file\n"+
			"(CFPQIDX2; reload with -load-index to skip the closure)")
	fs.StringVar(&cfg.LoadIndex, "load-index", "",
		"answer from an index previously saved with -save-index instead of\n"+
			"running the closure (grammar and graph must match the saved run)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if cfg.GraphPath == "" || cfg.QueryPath == "" {
		fs.Usage()
		return nil, fmt.Errorf("cfpq: -graph and -query are required")
	}
	return cfg, nil
}

// lookupNodes resolves a comma-separated -sources/-targets value through
// the graph's name table: each token is an IRI or a decimal node id.
func lookupNodes(flagName, spec string, names *graph.Names) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		id, err := names.Lookup(tok)
		if errors.Is(err, graph.ErrUnknownNode) {
			return nil, fmt.Errorf("cfpq: unknown %s node %q", flagName, tok)
		} else if err != nil {
			return nil, fmt.Errorf("cfpq: %s %w", flagName, err)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cfpq: -%s %q names no nodes", flagName, spec)
	}
	return out, nil
}

// Run executes the query described by cfg, writing results to out. The
// context cancels the closure between passes (e.g. on SIGINT).
func Run(ctx context.Context, cfg *Config, out io.Writer) error {
	backend, err := cfpq.BackendByName(cfg.Backend)
	if err != nil {
		return err
	}
	gf, err := os.Open(cfg.GraphPath)
	if err != nil {
		return err
	}
	g, ids, err := cfpq.LoadNTriples(gf)
	gf.Close()
	if err != nil {
		return err
	}
	qf, err := os.Open(cfg.QueryPath)
	if err != nil {
		return err
	}
	qtext, err := io.ReadAll(qf)
	qf.Close()
	if err != nil {
		return err
	}
	gram, err := cfpq.ParseGrammar(string(qtext))
	if err != nil {
		return err
	}
	return Execute(ctx, cfg, g, ids, gram, backend, out)
}

// Execute runs the already-loaded query. Split from Run so tests can drive
// it without touching the filesystem.
func Execute(ctx context.Context, cfg *Config, g *cfpq.Graph, ids map[string]int, gram *cfpq.Grammar, backend cfpq.Backend, out io.Writer) error {
	names := graph.NewNames(g.Nodes(), graph.NodeNames(g.Nodes(), ids))
	nodeName := names.Name
	if !cfg.Names {
		nodeName = strconv.Itoa
	}
	eng := cfpq.NewEngine(backend)
	if (cfg.Sources != "" || cfg.Targets != "" || cfg.Explain || cfg.Trace || cfg.Limit != 0) && cfg.Semantics != "relational" {
		return fmt.Errorf("cfpq: -sources/-targets/-explain/-trace/-limit support only -semantics=relational")
	}
	if cfg.SaveIndex != "" || cfg.LoadIndex != "" {
		if cfg.Semantics != "relational" {
			return fmt.Errorf("cfpq: -save-index/-load-index support only -semantics=relational")
		}
		if cfg.EmptyPaths {
			// The index holds the closure relation only; ε-pairs are a
			// query-time decoration the saved form does not carry.
			return fmt.Errorf("cfpq: -empty-paths cannot be combined with -save-index/-load-index")
		}
		return executeWithIndex(ctx, cfg, g, names, gram, eng, out, nodeName)
	}
	switch cfg.Semantics {
	case "relational":
		req := cfpq.Request{
			Graph:       g,
			Grammar:     gram,
			Nonterminal: cfg.Start,
			EmptyPaths:  cfg.EmptyPaths,
			Limit:       cfg.Limit,
			Trace:       cfg.Trace,
		}
		if cfg.CountOnly {
			// Counts are exact; -limit bounds streamed pairs only and a
			// Request rejects the meaningless combination.
			req.Output, req.Limit = cfpq.OutputCount, 0
		}
		if err := restrictRequest(&req, cfg, names); err != nil {
			return err
		}
		res, err := eng.Do(ctx, req)
		if err != nil {
			return err
		}
		printExplain(cfg, out, res)
		printTrace(cfg, out, res)
		return printRelational(cfg, out, res, nodeName)
	case "single-path":
		cnf, err := cfpq.ToCNF(gram)
		if err != nil {
			return err
		}
		px, err := eng.SinglePath(ctx, g, cnf)
		if err != nil {
			return err
		}
		rel := px.Relation(cfg.Start)
		if cfg.CountOnly {
			fmt.Fprintln(out, len(rel))
			return nil
		}
		for _, lp := range rel {
			path, ok := px.Path(cfg.Start, lp.I, lp.J)
			if !ok {
				return fmt.Errorf("cfpq: internal: no witness for (%d,%d)", lp.I, lp.J)
			}
			fmt.Fprintf(out, "%s\t%s\tlen=%d\t", nodeName(lp.I), nodeName(lp.J), lp.Length)
			for i, e := range path {
				if i > 0 {
					fmt.Fprint(out, " ")
				}
				fmt.Fprint(out, e.Label)
			}
			fmt.Fprintln(out)
		}
		return nil
	default:
		return fmt.Errorf("cfpq: unknown semantics %q", cfg.Semantics)
	}
}

// restrictRequest applies the -sources/-targets flags to a request.
func restrictRequest(req *cfpq.Request, cfg *Config, names *graph.Names) error {
	if cfg.Sources != "" {
		sources, err := lookupNodes("sources", cfg.Sources, names)
		if err != nil {
			return err
		}
		req.Sources = sources
	}
	if cfg.Targets != "" {
		targets, err := lookupNodes("targets", cfg.Targets, names)
		if err != nil {
			return err
		}
		req.Targets = targets
	}
	return nil
}

// printExplain renders the planner's Explain record as a leading comment
// line when -explain is set.
func printExplain(cfg *Config, out io.Writer, res *cfpq.Result) {
	if !cfg.Explain {
		return
	}
	fmt.Fprintf(out, "# plan: %s", res.Explain.Strategy)
	if res.Explain.Frontier > 0 || res.Explain.Strategy == cfpq.StrategySourceFrontier || res.Explain.Strategy == cfpq.StrategyTargetFrontier {
		fmt.Fprintf(out, " (frontier %d", res.Explain.Frontier)
		if res.Explain.Saturated {
			fmt.Fprint(out, ", saturated")
		}
		fmt.Fprint(out, ")")
	}
	fmt.Fprintf(out, " — %s\n", res.Explain.Reason)
	if res.Truncated {
		fmt.Fprintf(out, "# truncated: more pairs exist beyond -limit %d\n", cfg.Limit)
	}
}

// printTrace renders the evaluation's per-pass trace as leading comment
// lines when -trace is set. Pass 0 is the seeding step; the frontier
// column shows saturation only for source/target-restricted passes.
func printTrace(cfg *Config, out io.Writer, res *cfpq.Result) {
	if !cfg.Trace {
		return
	}
	if len(res.Explain.Passes) == 0 {
		fmt.Fprintln(out, "# trace: no passes (cached read)")
		return
	}
	fmt.Fprintf(out, "# trace: %-8s %4s %8s %8s %10s %12s %10s\n",
		"phase", "pass", "products", "delta", "frontier", "bytes", "time")
	for _, ev := range res.Explain.Passes {
		frontier := "-"
		if ev.Phase == "frontier" {
			frontier = fmt.Sprintf("%.3f", ev.Saturation())
		}
		fmt.Fprintf(out, "# trace: %-8s %4d %8d %8d %10s %12d %10s\n",
			ev.Phase, ev.Pass, ev.Products, ev.TotalDelta(), frontier, ev.Bytes,
			ev.Duration.Round(time.Microsecond))
	}
}

// printRelational writes a relational Result: the count under -count,
// otherwise one name-resolved pair per line.
func printRelational(cfg *Config, out io.Writer, res *cfpq.Result, nodeName func(int) string) error {
	if cfg.CountOnly {
		fmt.Fprintln(out, res.Count)
		return nil
	}
	for p := range res.Pairs() {
		fmt.Fprintf(out, "%s\t%s\n", nodeName(p.I), nodeName(p.J))
	}
	return nil
}

// executeWithIndex answers through an evaluated index: loaded from
// -load-index (skipping the closure — the warm-start path) or computed
// fresh and optionally persisted to -save-index.
func executeWithIndex(ctx context.Context, cfg *Config, g *cfpq.Graph, names *graph.Names, gram *cfpq.Grammar, eng *cfpq.Engine, out io.Writer, nodeName func(int) string) error {
	cnf, err := cfpq.ToCNF(gram)
	if err != nil {
		return err
	}
	var ix *cfpq.Index
	if cfg.LoadIndex != "" {
		f, err := os.Open(cfg.LoadIndex)
		if err != nil {
			return err
		}
		ix, err = eng.LoadIndex(f, cnf)
		f.Close()
		if err != nil {
			return err
		}
		if ix.Nodes() < g.Nodes() {
			return fmt.Errorf("cfpq: index covers %d nodes, graph has %d — rebuild with -save-index", ix.Nodes(), g.Nodes())
		}
	} else {
		if ix, _, err = eng.Evaluate(ctx, g, cnf); err != nil {
			return err
		}
	}
	if cfg.SaveIndex != "" {
		f, err := os.Create(cfg.SaveIndex)
		if err != nil {
			return err
		}
		if err := cfpq.SaveIndex(f, ix); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	p, err := eng.PrepareFromIndex(g, cnf, ix)
	if err != nil {
		return err
	}
	req := cfpq.Request{Nonterminal: cfg.Start, Limit: cfg.Limit, Trace: cfg.Trace}
	if cfg.CountOnly {
		req.Output, req.Limit = cfpq.OutputCount, 0
	}
	if err := restrictRequest(&req, cfg, names); err != nil {
		return err
	}
	res, err := p.Do(ctx, req)
	if err != nil {
		return err
	}
	printExplain(cfg, out, res)
	printTrace(cfg, out, res)
	return printRelational(cfg, out, res, nodeName)
}
