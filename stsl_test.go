package stsl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	stsl "github.com/stsl/stsl"
)

// TestFacadeSurface is the census that keeps stsl.go from regrowing: every
// name it exports must be referenced as stsl.<Name> by one of this
// package's *_test.go files, its tests and Example functions. A name
// nobody calls belongs in its internal package, not on the public surface.
func TestFacadeSurface(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "stsl.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}

	callers, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var corpus []byte
	for _, path := range callers {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		corpus = append(corpus, src...)
	}

	var unreferenced []string
	for _, name := range exported {
		// The pattern is assembled here, so no name in it is spelled out in
		// this file for the census to find.
		if !regexp.MustCompile(`\bstsl\.` + name + `\b`).Match(corpus) {
			unreferenced = append(unreferenced, name)
		}
	}
	if len(unreferenced) > 0 {
		t.Errorf("%d of %d names stsl.go exports are referenced by no test or Example of this package: %s",
			len(unreferenced), len(exported), strings.Join(unreferenced, ", "))
	}
}

// TestFacadeEndToEnd exercises the whole public API the way a downstream
// user would: generate data, shard it, build a deployment, simulate
// training, evaluate, and run a privacy audit.
func TestFacadeEndToEnd(t *testing.T) {
	gen := stsl.SynthCIFAR{Height: 8, Width: 8, Classes: 4}
	train, err := gen.Generate(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	test, err := gen.Generate(32, 2)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := stsl.PartitionDirichlet(train, 2, 0.5, stsl.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	model := stsl.PaperCNNConfig{
		Height: 8, Width: 8, Filters: []int{4, 8}, Hidden: 16, Classes: 4,
	}
	dep, err := stsl.NewDeployment(stsl.Config{
		Model: model, Cut: 1, Clients: 2, Seed: 4, BatchSize: 8, LR: 0.05,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]*stsl.Path, 2)
	for i := range paths {
		paths[i], err = stsl.NewSymmetricPath(
			stsl.ConstantLatency{D: time.Millisecond}, 0, stsl.NewRNG(uint64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	sim, err := stsl.NewSimulation(dep, stsl.SimConfig{Paths: paths, MaxStepsPerClient: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerSteps != 8 {
		t.Fatalf("server steps = %d", res.ServerSteps)
	}
	mean, _, err := dep.EvaluateMean(test)
	if err != nil {
		t.Fatal(err)
	}
	if mean < 0 || mean > 1 {
		t.Fatalf("accuracy %v", mean)
	}

	// Privacy audit through the facade.
	cnn, err := stsl.BuildPaperCNN(model, stsl.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	fig4, err := stsl.RunFig4(cnn, train.Image(0), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Stages) != 3 {
		t.Fatalf("stages = %d", len(fig4.Stages))
	}
}

func TestFacadeExperimentRunners(t *testing.T) {
	scale, err := stsl.ScaleByName("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stsl.RunTableI(scale, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := stsl.RunFig3Experiment(stsl.PaperCNNConfig{}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBaselines(t *testing.T) {
	gen := stsl.SynthCIFAR{Height: 8, Width: 8, Classes: 4}
	train, err := gen.Generate(48, 7)
	if err != nil {
		t.Fatal(err)
	}
	model := stsl.PaperCNNConfig{Height: 8, Width: 8, Filters: []int{4}, Hidden: 8, Classes: 4}
	res, err := stsl.TrainCentralized(stsl.TrainConfig{Model: model, Seed: 1, Epochs: 1, BatchSize: 16}, train)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stsl.EvaluateModel(res.Model, train); err != nil {
		t.Fatal(err)
	}
	shards, err := stsl.PartitionIID(train, 2, stsl.NewRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stsl.TrainFedAvg(stsl.FedAvgConfig{Model: model, Seed: 1, Rounds: 1, BatchSize: 16}, shards); err != nil {
		t.Fatal(err)
	}
}
