// Command hetpart partitions an n-element set over heterogeneous
// processors described by a JSON cluster file (see internal/clusterio for
// the format), using the paper's functional-model algorithms.
//
// Usage:
//
//	hetpart -n 100000000 -machines cluster.json [-algo combined] [-csv]
//	hetpart -n 100000000 -machines cluster.json -limits 1e7,5e8,...   # bounded
//	hetpart -grid 8000x8000 -machines cluster.json                    # 2D rectangles
//	hetpart -n 100000000 -machines cluster.json -fail p3@t=1.5s       # fault drill
//
// The cluster file holds a list of processors, each with a piecewise
// linear speed function ("points"), a constant speed ("speed"/"max"), a
// step function ("levels"), or a modelled machine spec ("spec") expanded
// for the cluster's kernel. Speeds are per-element; sizes in elements.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"heteropart/internal/clusterio"
	"heteropart/internal/core"
	"heteropart/internal/faults"
	"heteropart/internal/grid"
	"heteropart/internal/pool"
	"heteropart/internal/report"
	"heteropart/internal/sim"
	"heteropart/internal/speed"
)

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (r *repeatedFlag) String() string     { return strings.Join(*r, ",") }
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hetpart:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n        = flag.Int64("n", 0, "number of elements to distribute")
		machines = flag.String("machines", "", "JSON cluster file (see internal/clusterio)")
		algo     = flag.String("algo", "combined", "partitioning algorithm: basic, modified, combined, even")
		limits   = flag.String("limits", "", "comma-separated per-processor element limits (bounded variant)")
		gridDims = flag.String("grid", "", "WxH: partition a 2D grid into rectangles instead of a set")
		csv      = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		grace    = flag.Float64("grace", 1.5, "failure-detection timeout as a multiple of the predicted finish time")
		drift    = flag.Float64("drift", 0, "EWMA relative-error threshold of the model drift detector; >0 adds drift-aware makespan notes to fault drills")
		workers  = flag.Int("workers", 0, "worker pool width for any real kernel execution (0 = GOMAXPROCS)")

		fail repeatedFlag
	)
	flag.Var(&fail, "fail", "fault spec, repeatable: p3@t=1.5s, X2@t=1s,slow=0.4,for=2s, p1@t=2s,stall,for=0.5s, link@t=0.5s,for=1s (see internal/faults); added to the cluster file's own \"faults\"")
	flag.Parse()
	pool.SetDefault(*workers)
	if *machines == "" {
		return fmt.Errorf("-machines is required")
	}
	cluster, err := clusterio.LoadFile(*machines)
	if err != nil {
		return err
	}
	if *gridDims != "" {
		return runGrid(cluster, *gridDims, *csv)
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive")
	}
	fns, names, err := cluster.Functions(float64(*n))
	if err != nil {
		return err
	}

	var res core.Result
	switch {
	case *limits != "":
		lims, err := parseLimits(*limits, len(fns))
		if err != nil {
			return err
		}
		alloc, stats, err := core.Bounded(*n, fns, lims)
		if err != nil {
			return err
		}
		res = core.Result{Alloc: alloc, Stats: stats}
	default:
		var err error
		switch *algo {
		case "basic":
			res, err = core.Basic(*n, fns)
		case "modified":
			res, err = core.Modified(*n, fns)
		case "combined":
			res, err = core.Combined(*n, fns)
		case "even":
			alloc, e := core.Even(*n, len(fns))
			res, err = core.Result{Alloc: alloc, Stats: core.Stats{Algorithm: "even"}}, e
		default:
			return fmt.Errorf("unknown algorithm %q", *algo)
		}
		if err != nil {
			return err
		}
	}

	t := report.New(
		fmt.Sprintf("Distribution of %d elements (%s algorithm, %d steps, %d intersections)",
			*n, res.Stats.Algorithm, res.Stats.Steps, res.Stats.Intersections),
		"processor", "elements", "share %", "speed (el/s)", "time (s)")
	for i, x := range res.Alloc {
		sp := fns[i].Eval(float64(x))
		tm := 0.0
		if x > 0 && sp > 0 {
			tm = float64(x) / sp
		}
		t.AddRow(names[i], float64(x), 100*float64(x)/float64(*n), sp, tm)
	}
	t.AddNote("makespan: %s s", report.FormatFloat(core.Makespan(res.Alloc, fns)))
	specs := append(append([]string(nil), cluster.Faults...), fail...)
	if len(specs) > 0 {
		if err := addFaultNotes(t, specs, names, res.Alloc, fns, *grace, *drift); err != nil {
			return err
		}
	}
	return emit(t, *csv)
}

// addFaultNotes evaluates the distribution under the fault plan with the
// closed-form model and appends the FPM-aware recovered makespan next to
// the naive rerun-from-scratch baseline.
func addFaultNotes(t *report.Table, specs, names []string, alloc core.Allocation, fns []speed.Function, grace, drift float64) error {
	plan, err := faults.ParseSpecs(specs, names)
	if err != nil {
		return err
	}
	tasks := make([]sim.Task, len(alloc))
	for i, x := range alloc {
		tasks[i] = sim.Task{Work: float64(x), Size: float64(x)}
	}
	opt := sim.FaultyOptions{Plan: plan, Grace: grace}
	faulty, err := sim.FaultyMakespan(tasks, fns, opt)
	if err != nil {
		return err
	}
	if len(faulty.Failed) == 0 {
		t.AddNote("faults: no processor lost; makespan under the plan: %s s",
			report.FormatFloat(faulty.Makespan))
		if drift > 0 {
			if err := addDriftNotes(t, tasks, names, fns, opt, drift); err != nil {
				return err
			}
		}
		return nil
	}
	lost := make([]string, len(faulty.Failed))
	for k, i := range faulty.Failed {
		lost[k] = names[i]
	}
	naive, err := sim.NaiveRerunMakespan(tasks, fns, opt)
	if err != nil {
		return err
	}
	t.AddNote("faults: %s lost (last detected at %s s, %v elements redistributed)",
		strings.Join(lost, ", "), report.FormatFloat(faulty.DetectedAt), faulty.MovedWork)
	t.AddNote("recovered makespan (FPM repartitioning): %s s", report.FormatFloat(faulty.Makespan))
	t.AddNote("naive rerun-from-scratch makespan: %s s", report.FormatFloat(naive.Makespan))
	return nil
}

// addDriftNotes re-evaluates the plan with the EWMA drift monitor in the
// loop: processors that survive but run persistently off-model are caught
// by the detector, their models refreshed from observed speed, and the
// remaining work repartitioned — the closed measurement loop, without any
// failure.
func addDriftNotes(t *report.Table, tasks []sim.Task, names []string, fns []speed.Function, opt sim.FaultyOptions, threshold float64) error {
	dres, err := sim.DriftMakespan(tasks, fns, opt, sim.DriftOptions{Threshold: threshold})
	if err != nil {
		return err
	}
	if len(dres.Stale) == 0 {
		t.AddNote("drift: no model declared stale (threshold %s)", report.FormatFloat(threshold))
		return nil
	}
	stale := make([]string, len(dres.Stale))
	for k, i := range dres.Stale {
		stale[k] = names[i]
	}
	t.AddNote("drift: model stale on %s (EWMA error past %s at t=%s s; %s elements repartitioned)",
		strings.Join(stale, ", "), report.FormatFloat(threshold),
		report.FormatFloat(dres.RefreshedAt), report.FormatFloat(dres.MovedWork))
	t.AddNote("drift-refreshed makespan: %s s", report.FormatFloat(dres.Makespan))
	return nil
}

func runGrid(cluster *clusterio.Cluster, dims string, csv bool) error {
	parts := strings.SplitN(dims, "x", 2)
	if len(parts) != 2 {
		return fmt.Errorf("-grid wants WxH, got %q", dims)
	}
	w, err := strconv.Atoi(parts[0])
	if err != nil {
		return fmt.Errorf("-grid width: %w", err)
	}
	h, err := strconv.Atoi(parts[1])
	if err != nil {
		return fmt.Errorf("-grid height: %w", err)
	}
	fns, names, err := cluster.Functions(float64(w) * float64(h))
	if err != nil {
		return err
	}
	res, err := grid.Partition2D(w, h, fns, grid.Options{})
	if err != nil {
		return err
	}
	t := report.New(
		fmt.Sprintf("2D partition of a %d×%d grid (%d columns, makespan %s s)",
			w, h, res.Columns, report.FormatFloat(res.Makespan)),
		"processor", "rectangle", "cells", "share %", "time (s)")
	total := float64(w) * float64(h)
	for i, r := range res.Rects {
		tm := 0.0
		if a := float64(r.Area()); a > 0 {
			tm = a / fns[i].Eval(a)
		}
		t.AddRow(names[i], r.String(), float64(r.Area()), 100*float64(r.Area())/total, tm)
	}
	t.AddNote("total semi-perimeter (communication proxy): %d", grid.TotalSemiPerimeter(res.Rects))
	return emit(t, csv)
}

func emit(t *report.Table, csv bool) error {
	if csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t)
	}
	return nil
}

func parseLimits(s string, p int) ([]int64, error) {
	fields := strings.Split(s, ",")
	if len(fields) != p {
		return nil, fmt.Errorf("-limits has %d entries for %d processors", len(fields), p)
	}
	out := make([]int64, p)
	for i, f := range fields {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("-limits entry %d: %w", i, err)
		}
		out[i] = int64(v)
	}
	return out, nil
}
