package mm

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"heteropart/internal/core"
	"heteropart/internal/faults"
	"heteropart/internal/matrix"
	"heteropart/internal/plancache"
	"heteropart/internal/speed"
)

// AdaptiveConfig tunes the drift-aware executor.
type AdaptiveConfig struct {
	// Drift is the staleness detector fed with (predicted, observed)
	// model times after every phase. Nil gets a default detector
	// (alpha 0.3, threshold 0.25).
	Drift *speed.Drift
	// Phases is the number of supervision phases the stripes are split
	// into; drift can only be acted on at phase boundaries, so more
	// phases react faster at more supervision overhead. Default 4.
	Phases int
	// Slack is the repartition slack (core.Repartition): a refresh whose
	// optimal redistribution would improve the makespan by less than this
	// fraction moves nothing. Default 0.05.
	Slack float64
	// Cache, when set, serves the repartition optima through the plan
	// cache: repeated repartitions over an unchanged model hit it, and a
	// drift refresh migrates the stale model's plans. Results are
	// bit-identical either way; nil keeps the direct core.Repartition path.
	Cache *plancache.Cache
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Drift == nil {
		c.Drift = &speed.Drift{}
	}
	if c.Phases <= 0 {
		c.Phases = 4
	}
	if c.Slack <= 0 {
		c.Slack = 0.05
	}
	return c
}

// AdaptiveReport describes a drift-aware supervised run.
type AdaptiveReport struct {
	SupervisedReport
	// Stale lists workers whose model was declared stale (drift, not
	// death) in detection order.
	Stale []int
	// Refreshes counts model refresh + repartition events triggered by
	// drift alone (failure-triggered repartitions are counted in Rounds).
	Refreshes int
	// DriftMovedRows is the number of rows migrated because of drift
	// (MovedRows counts the failure-triggered migrations).
	DriftMovedRows int64
}

// ExecuteAdaptive multiplies C = A×Bᵀ like ExecuteSupervised, but closes
// the measurement loop of the paper's §4: the stripes run in phases, and
// after every phase each live worker's observed time is compared with the
// FPM prediction through a drift detector. A worker whose model has gone
// persistently wrong — a ×0.5 slowdown with no crash, a foreign job — is
// not killed: its speed function is refreshed from the observation
// (speed.Observe for piecewise linear models, a proportional rescale
// otherwise) and the remaining rows of all workers are repartitioned over
// the refreshed models, the same core.Repartition path a failure takes,
// but without one. Confirmed-dead workers are handled exactly as in
// ExecuteSupervised. The result is bit-identical to Execute's.
func ExecuteAdaptive(ctx context.Context, p Plan, a, b *matrix.Dense, flopRates []speed.Function, inj *faults.Injector, cfg faults.Config, acfg AdaptiveConfig) (*matrix.Dense, AdaptiveReport, error) {
	acfg = acfg.withDefaults()
	rep := AdaptiveReport{}
	if a.Rows != p.N || a.Cols != p.N || b.Rows != p.N || b.Cols != p.N {
		return nil, rep, fmt.Errorf("mm: plan is %d×%d, matrices %d×%d and %d×%d",
			p.N, p.N, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if len(flopRates) != len(p.Rows) {
		return nil, rep, fmt.Errorf("mm: plan for %d processors, %d speed functions", len(p.Rows), len(flopRates))
	}
	rowFns, err := RowFunctions(p.N, flopRates)
	if err != nil {
		return nil, rep, err
	}
	stripes, err := matrix.Stripes(p.Rows, p.N)
	if err != nil {
		return nil, rep, fmt.Errorf("mm: %w", err)
	}
	c, err := matrix.New(p.N, p.N)
	if err != nil {
		return nil, rep, err
	}
	if inj != nil {
		inj.Start()
	}
	nw := len(p.Rows)
	rep.Recovered = make(core.Allocation, nw)
	dead := make([]bool, nw)
	staleSeen := make([]bool, nw)
	rows := make([][]int, nw)
	// lastServed is the model whose plans the cache may be holding, so a
	// drift refresh can migrate them.
	var lastServed *speed.Model
	var left int
	for w, s := range stripes {
		for r := s[0]; r < s[1]; r++ {
			rows[w] = append(rows[w], r)
		}
		left += len(rows[w])
	}
	for phase := 1; left > 0; phase++ {
		rep.Rounds = phase
		// Chunk: spread each worker's remaining rows over the phases still
		// planned; from the last planned phase on, take everything.
		phasesLeft := acfg.Phases - phase + 1
		if phasesLeft < 1 {
			phasesLeft = 1
		}
		cursors := make([]atomic.Int64, nw)
		chunks := make([][]int, nw)
		var tasks []faults.Task
		for w := range rows {
			if len(rows[w]) == 0 || dead[w] {
				continue
			}
			n := (len(rows[w]) + phasesLeft - 1) / phasesLeft
			chunks[w] = rows[w][:n]
			tasks = append(tasks, faults.Task{
				Worker:    w,
				Predicted: rowTime(rowFns[w], n),
				Run:       stripeRunner(a, b, c, inj, chunks[w], w, &cursors[w]),
			})
		}
		outs := faults.Supervise(ctx, cfg, tasks)
		rep.Outcomes = append(rep.Outcomes, outs...)
		scale := cfg.Scale
		if !(scale > 0) {
			scale = 1
		}
		var stranded []int
		newStale := false
		leftover := make(core.Allocation, nw)
		for _, o := range outs {
			w := o.Worker
			if o.Failed() {
				dead[w] = true
				rep.Failed = append(rep.Failed, w)
				completed := int(cursors[w].Load())
				left -= completed
				rest := append([]int(nil), chunks[w][completed:]...)
				rest = append(rest, rows[w][len(chunks[w]):]...)
				stranded = append(stranded, rest...)
				leftover[w] = int64(len(rest))
				rows[w] = nil
				continue
			}
			done := len(chunks[w])
			rows[w] = rows[w][done:]
			left -= done
			// Feed the observation back: predicted vs observed model time
			// for the chunk just computed.
			predicted := rowTime(rowFns[w], done)
			observed := o.Elapsed.Seconds() / scale
			if predicted > 0 && observed > 0 &&
				acfg.Drift.Observe(w, predicted, observed) && !staleSeen[w] {
				staleSeen[w] = true
				newStale = true
				rep.Stale = append(rep.Stale, w)
				// Refresh the stale model from the observation and let the
				// detector track the refreshed model from scratch.
				obsSpeed := float64(done) / observed
				refreshed := refreshModel(rowFns[w], float64(done), obsSpeed)
				// One drifted worker is a delta, not a new cluster: migrate
				// the cached plans across the refresh instead of dropping
				// them all — plans this worker's drift provably cannot
				// move keep serving as exact hits.
				if acfg.Cache != nil && lastServed != nil {
					newServed := lastServed.WithProc(w, refreshed)
					acfg.Cache.Refresh(lastServed, newServed)
					lastServed = newServed
				}
				rowFns[w] = refreshed
				acfg.Drift.Reset(w)
			}
		}
		if len(stranded) == 0 && !newStale {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
		// Pool every remaining row and repartition over the live, possibly
		// refreshed models — the same path a failure takes.
		current := make(core.Allocation, nw)
		for w := range rows {
			stranded = append(stranded, rows[w]...)
			current[w] = int64(len(rows[w])) + leftover[w]
		}
		if len(stranded) == 0 {
			continue // nothing left to redistribute; the loop exits on left == 0
		}
		capped := make([]speed.Function, nw)
		for i := range rowFns {
			if dead[i] {
				capped[i] = core.CapDomain(rowFns[i], 0)
			} else {
				capped[i] = rowFns[i]
			}
		}
		slack := acfg.Slack
		if anyPositive(leftover) {
			// A failure leaves rows on a zero-domain processor; they must
			// move regardless of slack.
			slack = 0
		}
		var alloc core.Allocation
		var moved int64
		if acfg.Cache != nil {
			lastServed = speed.NewModel(capped)
			alloc, moved, err = repartitionCached(acfg.Cache, current, lastServed, slack)
		} else {
			alloc, moved, err = core.Repartition(current, capped, slack)
		}
		if err != nil {
			return nil, rep, fmt.Errorf("mm: repartitioning %d remaining rows: %w", len(stranded), err)
		}
		if anyPositive(leftover) {
			rep.MovedRows += moved
		} else {
			rep.DriftMovedRows += moved
			if moved > 0 {
				rep.Refreshes++
			}
		}
		sort.Ints(stranded)
		at := 0
		for w := range rows {
			take := int(alloc[w])
			if int64(take) > current[w] && leftover[w] == 0 {
				rep.Recovered[w] += int64(take) - current[w]
			}
			rows[w] = append(rows[w][:0], stranded[at:at+take]...)
			at += take
		}
	}
	return c, rep, nil
}

// repartitionCached adapts old to the model m as core.Repartition would,
// but serves the underlying optimal plan through the cache, so the
// repartition loop hits it instead of recomputing the optimum every phase.
func repartitionCached(c *plancache.Cache, old core.Allocation, m *speed.Model, slack float64) (core.Allocation, int64, error) {
	fns := m.Fns()
	n := old.Sum()
	if n == 0 || len(old) != len(fns) || slack < 0 {
		// Degenerate and error cases carry no cacheable plan; delegate.
		return core.Repartition(old, fns, slack)
	}
	opt, err := c.Get(core.AlgoCombined, n, m)
	if err != nil {
		return nil, 0, err
	}
	return core.RepartitionWith(old, fns, slack, opt)
}

// refreshModel folds an observed (size, speed) sample into a speed
// function: piecewise linear models take the observation through
// speed.Observe (a heavy blend — the detector has already established the
// model is wrong, not noisy); other representations are rescaled so the
// model matches the observation at the observed size.
func refreshModel(f speed.Function, x, observedSpeed float64) speed.Function {
	if pwl, ok := f.(*speed.PiecewiseLinear); ok {
		if g, err := speed.Observe(pwl, x, observedSpeed, 0.9, 0.05*x); err == nil {
			return g
		}
	}
	predicted := f.Eval(x)
	if predicted > 0 && observedSpeed > 0 {
		if g, err := speed.ScaleSpeed(f, observedSpeed/predicted); err == nil {
			return g
		}
	}
	return f
}

// anyPositive reports whether the allocation holds any stranded rows.
func anyPositive(a core.Allocation) bool {
	for _, v := range a {
		if v > 0 {
			return true
		}
	}
	return false
}
