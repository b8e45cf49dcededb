// Package profipy is a programmable software fault injection library — a
// Go reproduction of "ProFIPy: Programmable Software Fault Injection
// as-a-Service" (Cotroneo, De Simone, Liguori, Natella — DSN 2020).
//
// Users describe software fault models in a domain-specific language:
//
//	change {
//		$BLOCK{tag=b1; stmts=1,*}
//		$CALL{name=Delete*}(...)
//		$BLOCK{tag=b2; stmts=1,*}
//	} into {
//		$BLOCK{tag=b1}
//		$BLOCK{tag=b2}
//	}
//
// The library compiles specifications into meta-models, scans target
// source for injection points, generates mutated versions wrapped in a
// run-time trigger, executes each experiment for two workload rounds in
// an isolated container sandbox (at most N−1 in parallel), and analyses
// the outcomes: failure modes, service availability, failure logging and
// failure propagation.
//
// The complete workflow is driven through Campaign; the individual phases
// are available as Compile, Scan and Mutate for custom pipelines. The
// package's Examples are runnable end-to-end scenarios.
package profipy

import (
	"profipy/internal/analysis"
	"profipy/internal/campaign"
	"profipy/internal/dsl"
	"profipy/internal/faultmodel"
	"profipy/internal/mutator"
	"profipy/internal/pattern"
	"profipy/internal/plan"
	"profipy/internal/runtimefault"
	"profipy/internal/sandbox"
	"profipy/internal/scanner"
	"profipy/internal/trace"
	"profipy/internal/workload"
)

// Core workflow types, re-exported from the implementation packages.
type (
	// Spec is a named DSL bug specification with a fault-type label.
	Spec = faultmodel.Spec
	// Model is a named, saveable collection of specs.
	Model = faultmodel.Model
	// MetaModel is a compiled specification.
	MetaModel = pattern.MetaModel
	// InjectionPoint locates one match of a spec in target source.
	InjectionPoint = scanner.InjectionPoint
	// Plan is the set of experiments selected from the scan.
	Plan = plan.Plan
	// Campaign drives the full Scan -> Execution -> Analysis workflow.
	Campaign = campaign.Campaign
	// CampaignResult is the outcome of a campaign run.
	CampaignResult = campaign.Result
	// Report carries the data-analysis results.
	Report = analysis.Report
	// Record is one completed experiment.
	Record = analysis.Record
	// FailureClass is a user-defined failure mode (log regex).
	FailureClass = analysis.FailureClass
	// AnalysisConfig parameterises failure classification.
	AnalysisConfig = analysis.Config
	// WorkloadConfig describes how experiments exercise the target.
	WorkloadConfig = workload.Config
	// ExperimentResult is the outcome of one two-round experiment.
	ExperimentResult = workload.Result
	// Runtime is the container runtime substitute.
	Runtime = sandbox.Runtime
	// RuntimeConfig sizes the simulated host.
	RuntimeConfig = sandbox.RuntimeConfig
	// Image is a container template.
	Image = sandbox.Image
	// Container is one isolated experiment environment.
	Container = sandbox.Container
	// TraceRecorder collects spans for failure visualization.
	TraceRecorder = trace.Recorder
	// Span is one recorded API invocation.
	Span = trace.Span
	// RuntimeFault is one runtime trigger-based fault: site selector,
	// trigger and action, fired by an injector engine while the program
	// runs (no source mutation).
	RuntimeFault = runtimefault.Fault
	// RuntimeTrigger decides when an armed runtime fault fires.
	RuntimeTrigger = runtimefault.Trigger
	// RuntimeAction is what a firing runtime fault does.
	RuntimeAction = runtimefault.Action
	// InjectorEngine is a per-experiment runtime injector table,
	// attachable to a workload through WorkloadConfig.Injector.
	InjectorEngine = runtimefault.Engine
)

// NewInjectorEngine builds a runtime injector table whose trigger and
// corruption randomness flows from one seeded PRNG: identical faults,
// seed and workload produce identical injection decisions on both the
// compiled and tree-walk execution paths.
func NewInjectorEngine(faults []RuntimeFault, seed int64) (*InjectorEngine, error) {
	return runtimefault.NewEngine(faults, seed)
}

// Compile compiles a DSL bug specification into a meta-model.
func Compile(name, dslText string) (*MetaModel, error) {
	return dsl.Compile(name, dslText)
}

// Scan finds every injection point for the given faultload in a project
// (filename -> source).
func Scan(files map[string][]byte, specs []Spec) (*Plan, error) {
	return plan.Build(files, specs)
}

// MutateOptions controls mutation generation.
type MutateOptions struct {
	// Triggered wraps the faulty code in the run-time trigger branch so
	// the fault can be enabled/disabled during execution (required for
	// the two-round availability analysis).
	Triggered bool
}

// Mutation is a generated fault-injected source version.
type Mutation struct {
	// Source is the full mutated file.
	Source []byte
	// Original and Mutated are the replaced / injected snippets.
	Original string
	Mutated  string
}

// Mutate generates the mutated version of a source file for one
// injection point.
func Mutate(src []byte, spec Spec, point InjectionPoint, opts MutateOptions) (*Mutation, error) {
	mm, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	res, err := mutator.Apply(point.File, src, mm, point, mutator.Options{Triggered: opts.Triggered})
	if err != nil {
		return nil, err
	}
	return &Mutation{Source: res.Source, Original: res.Original(), Mutated: res.Mutated()}, nil
}

// NewRuntime creates a container runtime for the given host shape.
func NewRuntime(cfg RuntimeConfig) *Runtime {
	return sandbox.NewRuntime(cfg)
}

// PredefinedModels returns the registry of built-in fault models
// (G-SWFIT and the exception/resource extras of §III).
func PredefinedModels() *faultmodel.Registry {
	return faultmodel.NewRegistry()
}

// Timeline renders recorded spans as an ASCII timeline (the failure
// visualization of §IV-D).
func Timeline(spans []Span, width int) string {
	return trace.Timeline(spans, width)
}
