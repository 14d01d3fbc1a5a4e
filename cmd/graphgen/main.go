// Command graphgen generates, inspects, and serializes the graph
// families used by the reproduction.
//
// The default -format binary writes the chunked v3 format, which
// carries any arc count and reads back at least as fast as v2; v2
// files still read. Large
// planted generations (-n 2¹⁸ and up) report progress on stderr.
//
// Usage:
//
//	graphgen -type planted -n 1024 -d 181 -o g.fnr   # generate + save (binary v3)
//	graphgen -type planted -o g.txt -format text      # v1 text (golden files)
//	graphgen -type twostars -n 514 -stats             # properties only
//	graphgen -in g.fnr -stats                         # inspect a file (any format)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"os"

	"fnr"
	"fnr/internal/atomicio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphgen: ")
	var (
		kind   = flag.String("type", "planted", "family: planted|complete|ring|path|star|grid|torus|hypercube|gnp|regular|twostars|starclique|kt0|dist2|det")
		n      = flag.Int("n", 256, "size parameter")
		d      = flag.Int("d", 16, "degree parameter")
		p      = flag.Float64("p", 0.1, "edge probability (gnp)")
		seed   = flag.Uint64("seed", 1, "generator seed")
		out    = flag.String("o", "", "write the graph to this file")
		format = flag.String("format", "binary", "output format: binary (v3) or text (v1); reading auto-detects every format")
		in     = flag.String("in", "", "read a graph from this file instead of generating (either format)")
		stats  = flag.Bool("stats", false, "print structural properties")
		idMode = flag.String("ids", "tight", "ID assignment: tight|permuted|sparse")
	)
	flag.Parse()

	var g *fnr.Graph
	var err error
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		g, err = fnr.ReadGraph(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		g, err = generate(*kind, *n, *d, *p, *seed, *idMode)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println(g)
	if *stats {
		fmt.Printf("connected: %v\n", fnr.IsConnected(g))
		adjacent := fnr.PairsAtDistance(g, 1, 1)
		if len(adjacent) > 0 {
			fmt.Printf("sample adjacent pair: %d-%d\n", adjacent[0][0], adjacent[0][1])
		}
	}
	if *out != "" {
		write, label := (*fnr.Graph).WriteBinaryV3, "binary v3"
		switch *format {
		case "binary":
		case "text":
			write, label = (*fnr.Graph).WriteTo, "text"
		default:
			log.Fatalf("unknown format %q (want binary or text)", *format)
		}
		// Atomic rewrite: a crash mid-write (or a reader racing the
		// generator) never observes a truncated graph file.
		err := atomicio.WriteFile(*out, func(w io.Writer) error {
			_, err := write(g, w)
			return err
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%s)\n", *out, label)
	}
}

func generate(kind string, n, d int, p float64, seed uint64, idMode string) (*fnr.Graph, error) {
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	hard := map[string]fnr.HardKind{
		"twostars": fnr.HardTwoStars, "starclique": fnr.HardStarClique,
		"kt0": fnr.HardKT0, "dist2": fnr.HardDistance2, "det": fnr.HardDeterministic,
	}
	if hk, ok := hard[kind]; ok {
		inst, err := fnr.HardInstance(hk, n)
		if err != nil {
			return nil, err
		}
		fmt.Printf("hard instance %q: start a=%d b=%d, predicted lower bound %d rounds\n",
			inst.Name, inst.StartA, inst.StartB, inst.LowerBound)
		fmt.Printf("note: %s\n", inst.Note)
		return inst.G, nil
	}
	var g *fnr.Graph
	var err error
	switch kind {
	case "planted":
		// At large n generation runs for minutes; report progress on
		// stderr, throttled to ~5% steps so the log stays short no
		// matter the size.
		var progress func(done, expected int)
		if n >= 1<<18 {
			lastPct := -5
			progress = func(done, expected int) {
				if pct := done * 100 / expected; pct >= lastPct+5 {
					lastPct = pct
					log.Printf("planted n=%d d=%d: %d/%d edges (%d%%)", n, d, done, expected, pct)
				}
			}
		}
		g, err = fnr.PlantedMinDegreeProgress(n, d, rng, progress)
	case "complete":
		g, err = fnr.Complete(n)
	case "ring":
		g, err = fnr.Ring(n)
	case "path":
		g, err = fnr.Path(n)
	case "star":
		g, err = fnr.Star(n)
	case "grid":
		g, err = fnr.Grid(n, n)
	case "torus":
		g, err = fnr.Torus(n, n)
	case "hypercube":
		g, err = fnr.Hypercube(n)
	case "gnp":
		g, err = fnr.GNP(n, p, rng)
	case "regular":
		g, err = fnr.RandomRegular(n, d, rng)
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
	if err != nil {
		return nil, err
	}
	switch idMode {
	case "tight":
		return g, nil
	case "permuted", "sparse":
		b := fnr.Rebuild(g)
		if idMode == "permuted" {
			b.PermuteIDs(rng)
		} else if err := b.SparseIDs(16, rng); err != nil {
			return nil, err
		}
		return b.Build()
	default:
		return nil, fmt.Errorf("unknown ID mode %q", idMode)
	}
}
