// Command profipy is the ProFIPy command-line interface: compile and
// inspect fault models, scan targets for injection points, generate
// mutated versions, and run the built-in case-study campaigns.
//
// Usage:
//
//	profipy models                      list predefined fault models
//	profipy scan    -dir D -model M     scan *.go under D with model M
//	profipy mutate  -dir D -model M -index N [-o FILE]
//	                                    emit the N-th mutation
//	profipy demo    -campaign A|B|C|R   reproduce a §V campaign (R = mixed
//	                                    compile-time + runtime injection)
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"profipy"
	"profipy/internal/kvclient"
	"profipy/internal/sandbox"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "profipy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: profipy <models|scan|mutate|demo> [flags]")
	}
	switch args[0] {
	case "models":
		return runModels()
	case "scan":
		return runScan(args[1:])
	case "mutate":
		return runMutate(args[1:])
	case "demo":
		return runDemo(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func runModels() error {
	reg := profipy.PredefinedModels()
	for _, name := range reg.Names() {
		m, _ := reg.Get(name)
		fmt.Printf("%s — %s\n", m.Name, m.Description)
		for _, s := range m.Specs {
			fmt.Printf("  %-8s %s\n", s.Name, s.Doc)
		}
	}
	return nil
}

func loadModelSpecs(name string) ([]profipy.Spec, error) {
	reg := profipy.PredefinedModels()
	if m, ok := reg.Get(name); ok {
		return m.Specs, nil
	}
	// Fall back to a JSON model file on disk.
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("no predefined model %q and cannot read it as a file: %w", name, err)
	}
	m, err := loadModelJSON(data)
	if err != nil {
		return nil, err
	}
	return m.Specs, nil
}

func loadTargetDir(dir string) (map[string][]byte, error) {
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			rel = path
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files under %s", dir)
	}
	return files, nil
}

func runScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ContinueOnError)
	dir := fs.String("dir", ".", "target source directory")
	model := fs.String("model", "gswfit", "predefined model name or JSON model file")
	planOut := fs.String("plan", "", "write the injection plan JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := loadModelSpecs(*model)
	if err != nil {
		return err
	}
	files, err := loadTargetDir(*dir)
	if err != nil {
		return err
	}
	pl, err := profipy.Scan(files, specs)
	if err != nil {
		return err
	}
	fmt.Printf("scanned %d files with %d specs: %d injection points\n", len(files), len(specs), pl.Len())
	byType := pl.CountByType()
	for _, typ := range slices.Sorted(maps.Keys(byType)) {
		fmt.Printf("  %-24s %d\n", typ, byType[typ])
	}
	if *planOut != "" {
		data, err := pl.Save()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			return err
		}
		fmt.Println("plan written to", *planOut)
	}
	return nil
}

func runMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	dir := fs.String("dir", ".", "target source directory")
	model := fs.String("model", "gswfit", "predefined model name or JSON model file")
	index := fs.Int("index", 0, "injection point index from the scan ordering")
	out := fs.String("o", "", "output file (default: stdout)")
	triggered := fs.Bool("triggered", true, "wrap the fault in the run-time trigger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := loadModelSpecs(*model)
	if err != nil {
		return err
	}
	files, err := loadTargetDir(*dir)
	if err != nil {
		return err
	}
	pl, err := profipy.Scan(files, specs)
	if err != nil {
		return err
	}
	if *index < 0 || *index >= pl.Len() {
		return fmt.Errorf("index %d out of range (plan has %d points)", *index, pl.Len())
	}
	pt := pl.Points[*index]
	spec, ok := pl.Spec(pt.Spec)
	if !ok {
		return fmt.Errorf("spec %q not in plan", pt.Spec)
	}
	mut, err := profipy.Mutate(files[pt.File], spec, pt, profipy.MutateOptions{Triggered: *triggered})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "point %s (%s at %s:%d)\n  original: %s\n  mutated:  %s\n",
		pt.ID(), pt.Spec, pt.File, pt.Line, mut.Original, mut.Mutated)
	if *out == "" {
		fmt.Println(string(mut.Source))
		return nil
	}
	return os.WriteFile(*out, mut.Source, 0o644)
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	which := fs.String("campaign", "A", "which campaign to run: the §V campaigns A, B or C, or R (mixed compile-time + runtime injection)")
	seed := fs.Int64("seed", 101, "deterministic seed")
	cores := fs.Int("cores", 4, "simulated host cores (N-1 parallel containers)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rt := sandbox.NewRuntime(sandbox.RuntimeConfig{Cores: *cores, Seed: *seed})
	var c *profipy.Campaign
	switch strings.ToUpper(*which) {
	case "A":
		c = kvclient.CampaignA(rt, *seed)
	case "B":
		c = kvclient.CampaignB(rt, *seed)
	case "C":
		c = kvclient.CampaignC(rt, *seed)
	case "R":
		c = kvclient.CampaignR(rt, *seed)
	default:
		return fmt.Errorf("unknown campaign %q", *which)
	}
	res, err := c.Run()
	if err != nil {
		return err
	}
	fmt.Println(res.Report.Render(c.Name))
	fmt.Printf("scan %v, coverage %v, execution %v; containers: %+v\n",
		res.ScanTime, res.CovTime, res.ExecTime, rt.Stats())
	if res.Injected > 0 {
		fmt.Printf("experiments: %d source-mutated, %d runtime-injected (no recompilation)\n",
			res.Mutated, res.Injected)
	}
	return nil
}
