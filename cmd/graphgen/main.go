// Command graphgen emits the synthetic evaluation datasets as N-Triples,
// and the scale-tier benchmark topologies as edge lists, for inspection or
// for use with external tools.
//
// Usage:
//
//	graphgen -list                 # list dataset names and sizes
//	graphgen -name wine            # write wine.nt to stdout
//	graphgen -name g1 -o g1.nt     # write to a file
//	graphgen -all -dir data/       # write every dataset into a directory
//	graphgen -synth chain -nodes 10000            # scale-tier topology as an edge list
//	graphgen -synth scale-free -nodes 100000 -degree 3 -seed 7 -o sf.edges
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"cfpq/internal/dataset"
	"cfpq/internal/graph"
	"cfpq/internal/graphgen"
)

func main() {
	list := flag.Bool("list", false, "list datasets")
	name := flag.String("name", "", "dataset to emit")
	out := flag.String("o", "", "output file (default stdout)")
	all := flag.Bool("all", false, "emit every dataset")
	dir := flag.String("dir", ".", "output directory for -all")
	synth := flag.String("synth", "", "scale-tier topology to emit: chain, cycle, grid or scale-free")
	nodes := flag.Int("nodes", 10_000, "node count for -synth")
	depth := flag.Int("depth", 0, "derivation depth for the chain/cycle topologies (0 = default)")
	degree := flag.Int("degree", 0, "out-degree for the scale-free topology (0 = 3)")
	seed := flag.Int64("seed", 0, "seed for the scale-free topology (0 = 1)")
	flag.Parse()

	switch {
	case *synth != "":
		g, err := graphgen.Generate(graphgen.Spec{
			Kind:   graphgen.Kind(*synth),
			Nodes:  *nodes,
			Depth:  *depth,
			Degree: *degree,
			Seed:   *seed,
		})
		if err != nil {
			fatal(err)
		}
		if err := emit(*out, func(w io.Writer) error { return graph.WriteEdgeList(w, g, nil) }); err != nil {
			fatal(err)
		}
	case *list:
		fmt.Printf("%-30s %9s %7s\n", "name", "#triples", "copies")
		for _, d := range dataset.Graphs() {
			kind := ""
			if d.Synthetic {
				kind = "(repeated)"
			}
			fmt.Printf("%-30s %9d %7s\n", d.Name, d.Triples, kind)
		}
	case *all:
		for _, d := range dataset.Graphs() {
			path := filepath.Join(*dir, d.Name+".nt")
			if err := emitDataset(d, path); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s (%d triples)\n", path, d.Triples)
		}
	case *name != "":
		d, ok := dataset.ByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown dataset %q (try -list)", *name))
		}
		if err := emitDataset(d, *out); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func emitDataset(d dataset.Dataset, path string) error {
	return emit(path, func(w io.Writer) error { return graph.WriteNTriples(w, d.TripleSet()) })
}

// emit runs write against the file at path, or against standard output when
// path is empty. A file is complete only once Close has succeeded — a full
// disk or an exceeded quota can surface there — so that error is reported
// like a failed write.
func emit(path string, write func(io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "graphgen: %v\n", err)
	os.Exit(1)
}
