package experiments

import (
	"fmt"
	"io"
	"strings"

	"heteropart/internal/measure"
	"heteropart/internal/pool"
	"heteropart/internal/report"
)

// Options scales RunAll between test-sized and full paper-sized sweeps.
type Options struct {
	// Quick trims sweeps (fewer sizes, smaller real kernels) so the whole
	// suite finishes in seconds; the full run regenerates every row of the
	// paper artifacts.
	Quick bool
	// SkipReal skips the real-host measurements (Tables 3–4 real halves).
	SkipReal bool
	// Only restricts the run to artifacts whose name contains this
	// substring (case-insensitive), e.g. "fig22" or "ablation".
	Only string
	// Workers bounds the worker pool that runs independent artifacts
	// concurrently (0 = GOMAXPROCS); it is also plumbed into the
	// measurement Config of the real-host tables. Output order is
	// deterministic regardless: tables are collected per artifact and
	// emitted in artifactNames order.
	Workers int
}

// names of the artifacts, in run order, for Options.Only matching.
var artifactNames = []string{
	"fig1", "fig2", "table3-model", "table4-model", "table3-real",
	"table4-real", "fig21", "fig22a", "fig22b",
	"ablation-algorithms", "ablation-bisection", "ablation-finetune",
	"ablation-builder", "ablation-communication", "ablation-2d",
	"ablation-step-model", "ablation-heterogeneity", "ablation-group-block", "ablation-overlap",
	"ablation-fault-recovery", "ablation-robust-measure",
}

// Artifacts lists the artifact names accepted by Options.Only.
func Artifacts() []string {
	return append([]string(nil), artifactNames...)
}

// RunAll regenerates every table and figure plus the ablations, writing
// the rendered tables to w. Independent artifacts run concurrently on the
// shared worker pool (bounded by Options.Workers); per-artifact tables are
// collected and emitted in the fixed artifactNames order, so the output is
// byte-identical to a serial run. It returns the tables for programmatic
// use; on failure, the error names the first failing artifact in run
// order and the returned tables are those of the artifacts before it.
func RunAll(w io.Writer, opt Options) ([]*report.Table, error) {
	one := func(t *report.Table, err error) ([]*report.Table, error) {
		if err != nil {
			return nil, err
		}
		return []*report.Table{t}, nil
	}
	maxBase := 512
	cfg := measure.Config{Repeats: 3, Workers: opt.Workers}
	ps, sizes := []int(nil), []int64(nil)
	var mmNs, luNs []int
	if opt.Quick {
		maxBase = 128
		cfg.Repeats = 1
		ps = []int{270, 540}
		sizes = []int64{250_000_000, 1_000_000_000}
		mmNs = []int{15000, 23000, 31000}
		luNs = []int{16000, 24000, 32000}
	}
	runners := map[string]func() ([]*report.Table, error){
		"fig1":                    Fig1,
		"fig2":                    Fig2,
		"table3-model":            func() ([]*report.Table, error) { return one(Table3Model()) },
		"table4-model":            func() ([]*report.Table, error) { return one(Table4Model()) },
		"table3-real":             func() ([]*report.Table, error) { return one(Table3Real(maxBase, cfg)) },
		"table4-real":             func() ([]*report.Table, error) { return one(Table4Real(maxBase, cfg)) },
		"fig21":                   func() ([]*report.Table, error) { return one(Fig21(ps, sizes)) },
		"fig22a":                  func() ([]*report.Table, error) { return one(Fig22a(mmNs)) },
		"fig22b":                  func() ([]*report.Table, error) { return one(Fig22b(luNs, 64)) },
		"ablation-algorithms":     func() ([]*report.Table, error) { return one(AblationAlgorithms()) },
		"ablation-bisection":      func() ([]*report.Table, error) { return one(AblationAngleVsTangent()) },
		"ablation-finetune":       func() ([]*report.Table, error) { return one(AblationFineTuning()) },
		"ablation-builder":        func() ([]*report.Table, error) { return one(AblationBuilderBudget()) },
		"ablation-communication":  func() ([]*report.Table, error) { return one(AblationCommunication()) },
		"ablation-2d":             func() ([]*report.Table, error) { return one(Ablation2DPartitioning()) },
		"ablation-step-model":     func() ([]*report.Table, error) { return one(AblationStepModel()) },
		"ablation-heterogeneity":  func() ([]*report.Table, error) { return one(AblationHeterogeneity()) },
		"ablation-group-block":    func() ([]*report.Table, error) { return one(AblationGroupBlock()) },
		"ablation-overlap":        func() ([]*report.Table, error) { return one(AblationOverlap()) },
		"ablation-fault-recovery": func() ([]*report.Table, error) { return one(AblationFaultRecovery()) },
		"ablation-robust-measure": func() ([]*report.Table, error) { return one(AblationRobustMeasurement()) },
	}
	only := strings.ToLower(opt.Only)
	var selected []string
	for _, name := range artifactNames {
		if only != "" && !strings.Contains(name, only) {
			continue
		}
		if opt.SkipReal && strings.HasSuffix(name, "-real") {
			continue
		}
		selected = append(selected, name)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("experiments: -only %q matches no artifact (have %v)", opt.Only, artifactNames)
	}
	// Fan the selected artifacts out over the pool; each slot collects its
	// own tables so emission below stays in deterministic run order.
	tables := make([][]*report.Table, len(selected))
	errs := make([]error, len(selected))
	pool.Sized(opt.Workers).Run(len(selected), func(i int) {
		tables[i], errs[i] = runners[selected[i]]()
	})
	var all []*report.Table
	for i, name := range selected {
		if errs[i] != nil {
			return all, fmt.Errorf("%s: %w", name, errs[i])
		}
		for _, t := range tables[i] {
			all = append(all, t)
			if w != nil {
				fmt.Fprintln(w, t)
			}
		}
	}
	return all, nil
}
